//! Seeded input generation and the standing queries every workload runs.
//!
//! All inputs are made before any timing starts, from the `--seed`
//! argument alone: the same seed gives the same rows, byte for byte.

use datacell::kernel::Column;

/// Rows per arrival batch; every query slides by exactly one batch.
pub const SLIDE: usize = 256;
/// Domain of `s.x`, the Q1 grouping column (100 keys).
pub const X_DOMAIN: u64 = 100;
/// Q1 keeps `x > 79`: 20 of 100 keys, 20% selectivity.
pub const X_THRESHOLD: i64 = 79;
/// Domain of `s.g`, the `agg_10k` grouping column (10⁴ keys).
pub const G_DOMAIN: u64 = 10_000;
/// Domain of the value columns `s.v` and `t.w`.
pub const V_DOMAIN: u64 = 1_000_000;
/// Domain of the join key `j` on both streams: a 1024-row window on each
/// side meets about 1024² / 26 214 ≈ 40 matches.
pub const J_DOMAIN: u64 = 26_214;
/// Rows in the Q1 window (8 basic windows).
pub const Q1_WINDOW: usize = 2048;
/// Rows per stream in the Q2 join window (4 basic windows).
pub const Q2_WINDOW: usize = 1024;
/// Rows in the `agg_10k` window (4 basic windows).
pub const AGG_WINDOW: usize = 1024;
/// Rows in the `topk` window (16 basic windows).
pub const TOPK_WINDOW: usize = 4096;
/// `LIMIT` of the top-k query.
pub const TOPK: usize = 10;
/// Batches fed before every query has produced its first window.
pub const WARM_STEPS: usize = TOPK_WINDOW / SLIDE;

/// The four standing queries, in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `SELECT x, sum(v) … WHERE x > 79 GROUP BY x`: the paper's Q1.
    Q1GroupBy,
    /// Two-stream equi-join with `max`/`avg`: the paper's Q2.
    Q2Join,
    /// Grouped `sum`/`count`/`avg` over 10⁴ keys.
    Agg10k,
    /// `ORDER BY v DESC LIMIT 10`.
    TopK,
}

impl Query {
    /// Queries of the two-stream in-process mixes.
    pub const MIX: [Query; 4] = [Query::Q1GroupBy, Query::Q2Join, Query::Agg10k, Query::TopK];
    /// Single-stream queries carried by the wire workload; the subscriber
    /// watches the first (`q0`).
    pub const WIRE: [Query; 3] = [Query::Q1GroupBy, Query::Agg10k, Query::TopK];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Query::Q1GroupBy => "q1_groupby",
            Query::Q2Join => "q2_join",
            Query::Agg10k => "agg_10k",
            Query::TopK => "topk",
        }
    }

    /// Window length in rows (per stream for the join).
    pub fn window(self) -> usize {
        match self {
            Query::Q1GroupBy => Q1_WINDOW,
            Query::Q2Join => Q2_WINDOW,
            Query::Agg10k => AGG_WINDOW,
            Query::TopK => TOPK_WINDOW,
        }
    }

    /// Basic windows per window.
    pub fn basic_windows(self) -> usize {
        self.window() / SLIDE
    }

    /// The SQL text registered with the engine.
    pub fn sql(self) -> String {
        let (w, s) = (self.window(), SLIDE);
        match self {
            Query::Q1GroupBy => format!(
                "SELECT x, sum(v) FROM s WHERE x > {X_THRESHOLD} GROUP BY x WINDOW SIZE {w} SLIDE {s}"
            ),
            Query::Q2Join => {
                format!("SELECT max(s.v), avg(t.w) FROM s, t WHERE s.j = t.j WINDOW SIZE {w} SLIDE {s}")
            }
            Query::Agg10k => {
                format!("SELECT g, sum(v), count(v), avg(v) FROM s GROUP BY g WINDOW SIZE {w} SLIDE {s}")
            }
            Query::TopK => format!("SELECT v FROM s ORDER BY v DESC LIMIT {TOPK} WINDOW SIZE {w} SLIDE {s}"),
        }
    }

    /// Windows a query emits over `steps` batches:
    /// `(N − W) / slide + 1` for `N = steps · slide ≥ W`, else 0.
    pub fn windows_after(self, steps: usize) -> usize {
        let n = steps * SLIDE;
        if n < self.window() {
            0
        } else {
            (n - self.window()) / SLIDE + 1
        }
    }
}

/// One arrival batch: `SLIDE` rows of `s(x, g, v, j)` and of `t(j, w)`.
pub struct Batch {
    /// Columns of stream `s`, in schema order.
    pub s: Vec<Column>,
    /// Columns of stream `t`, in schema order.
    pub t: Vec<Column>,
}

impl Batch {
    /// Integer column `i` of stream `s`.
    pub fn s_col(&self, i: usize) -> &[i64] {
        self.s[i].as_int().expect("generated columns are Int")
    }

    /// Integer column `i` of stream `t`.
    pub fn t_col(&self, i: usize) -> &[i64] {
        self.t[i].as_int().expect("generated columns are Int")
    }
}

/// Column indices of `s`.
pub const S_X: usize = 0;
/// See [`S_X`].
pub const S_G: usize = 1;
/// See [`S_X`].
pub const S_V: usize = 2;
/// See [`S_X`].
pub const S_J: usize = 3;
/// Column indices of `t`.
pub const T_J: usize = 0;
/// See [`T_J`].
pub const T_W: usize = 1;

/// splitmix64: a small, fast, well-mixed generator. Inputs must not
/// depend on anything but the seed, so no external RNG is involved.
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is negligible for these domains).
    pub fn below(&mut self, n: u64) -> i64 {
        i64::try_from(self.next_u64() % n).expect("domains fit in i64")
    }
}

/// `steps` arrival batches for seed `seed`; stream `t` stays empty
/// unless `with_t`.
pub fn batches(seed: u64, steps: usize, with_t: bool) -> Vec<Batch> {
    let mut rs = Rng::new(seed, 1);
    let mut rt = Rng::new(seed, 2);
    (0..steps)
        .map(|_| {
            let mut s: Vec<Vec<i64>> = (0..4).map(|_| Vec::with_capacity(SLIDE)).collect();
            let mut t: Vec<Vec<i64>> = (0..2).map(|_| Vec::with_capacity(SLIDE)).collect();
            for _ in 0..SLIDE {
                s[S_X].push(rs.below(X_DOMAIN));
                s[S_G].push(rs.below(G_DOMAIN));
                s[S_V].push(rs.below(V_DOMAIN));
                s[S_J].push(rs.below(J_DOMAIN));
                t[T_J].push(rt.below(J_DOMAIN));
                t[T_W].push(rt.below(V_DOMAIN));
            }
            Batch {
                s: s.into_iter().map(Column::Int).collect(),
                t: if with_t { t.into_iter().map(Column::Int).collect() } else { Vec::new() },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_other_seed_other_rows() {
        let a = batches(7, 3, true);
        let b = batches(7, 3, true);
        let c = batches(8, 3, true);
        for i in 0..3 {
            assert_eq!(a[i].s, b[i].s);
            assert_eq!(a[i].t, b[i].t);
        }
        assert_ne!(a[0].s, c[0].s);
    }

    #[test]
    fn values_stay_in_their_domains() {
        for b in batches(1, 4, true) {
            assert!(b.s_col(S_X).iter().all(|&x| (0..100).contains(&x)));
            assert!(b.s_col(S_G).iter().all(|&g| (0..10_000).contains(&g)));
            assert!(b.t_col(T_J).iter().all(|&j| (0..26_214).contains(&j)));
        }
    }

    #[test]
    fn window_counts_follow_the_formula() {
        assert_eq!(Query::Q1GroupBy.windows_after(7), 0);
        assert_eq!(Query::Q1GroupBy.windows_after(8), 1);
        assert_eq!(Query::Q1GroupBy.windows_after(10), 3);
        assert_eq!(Query::TopK.windows_after(WARM_STEPS), 1);
    }
}
