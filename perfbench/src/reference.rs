//! The independent reference: every window re-evaluated from the
//! generated rows in plain Rust, without any engine code.
//!
//! Results are compared in canonical form: rows sorted, so grouped
//! results compare as keyed sets and the top-k as a multiset of values.
//! This is the paper's invariant seen from outside: the incremental plan
//! must return exactly what re-evaluating the window returns.

use datacell::kernel::Column;
use datacell::plan::ResultSet;

/// One result row in comparable form: up to four values, integers as
/// they are and floats by their bit pattern (so equality is exact).
pub type Row = [i64; 4];

fn float(f: f64) -> i64 {
    i64::from_ne_bytes(f.to_bits().to_ne_bytes())
}

/// `SELECT x, sum(v) WHERE x > threshold GROUP BY x`.
pub fn q1(x: &[i64], v: &[i64], threshold: i64) -> Vec<Row> {
    let kept = x.iter().zip(v).filter(|(&k, _)| k > threshold).map(|(&k, &val)| (k, val));
    group_sums(kept.collect()).into_iter().map(|(k, s, _)| [k, s, 0, 0]).collect()
}

/// `(key, Σ value, count)` per key, in key order.
fn group_sums(mut pairs: Vec<(i64, i64)>) -> Vec<(i64, i64, i64)> {
    pairs.sort_unstable_by_key(|p| p.0);
    let mut out: Vec<(i64, i64, i64)> = Vec::new();
    for (k, v) in pairs {
        match out.last_mut() {
            Some(last) if last.0 == k => {
                last.1 += v;
                last.2 += 1;
            }
            _ => out.push((k, v, 1)),
        }
    }
    out
}

/// `SELECT max(s.v), avg(t.w) FROM s, t WHERE s.j = t.j`: one row over
/// all matching pairs, none when nothing matches.
pub fn q2(sj: &[i64], sv: &[i64], tj: &[i64], tw: &[i64]) -> Vec<Row> {
    let mut build: Vec<(i64, i64)> = tj.iter().copied().zip(tw.iter().copied()).collect();
    build.sort_unstable_by_key(|p| p.0);
    let (mut max, mut sum, mut n) = (i64::MIN, 0i64, 0i64);
    for (&k, &v) in sj.iter().zip(sv) {
        let first = build.partition_point(|p| p.0 < k);
        for &(_, w) in build[first..].iter().take_while(|p| p.0 == k) {
            max = max.max(v);
            sum += w;
            n += 1;
        }
    }
    if n == 0 {
        return Vec::new();
    }
    vec![[max, float(sum as f64 / n as f64), 0, 0]]
}

/// `SELECT g, sum(v), count(v), avg(v) GROUP BY g`.
pub fn agg(g: &[i64], v: &[i64]) -> Vec<Row> {
    let pairs = g.iter().copied().zip(v.iter().copied()).collect();
    group_sums(pairs).into_iter().map(|(k, s, n)| [k, s, n, float(s as f64 / n as f64)]).collect()
}

/// `SELECT v ORDER BY v DESC LIMIT k`, as a multiset of values.
pub fn topk(v: &[i64], k: usize) -> Vec<Row> {
    let mut vals = v.to_vec();
    if vals.len() > k {
        vals.select_nth_unstable_by(k, |a, b| b.cmp(a));
        vals.truncate(k);
    }
    canon(vals.into_iter().map(|x| [x, 0, 0, 0]).collect())
}

/// A result set's rows in canonical form, or `None` when it has more
/// than four columns or a column type the queries never produce.
pub fn canon_result(rs: &ResultSet) -> Option<Vec<Row>> {
    let cols = rs.columns();
    if cols.len() > 4 {
        return None;
    }
    let mut rows = vec![[0i64; 4]; rs.len()];
    for (c, col) in cols.iter().enumerate() {
        match col {
            Column::Int(v) => rows.iter_mut().zip(v).for_each(|(r, &x)| r[c] = x),
            Column::Float(v) => rows.iter_mut().zip(v).for_each(|(r, &x)| r[c] = float(x)),
            _ => return None,
        }
    }
    Some(canon(rows))
}

/// Sort rows into canonical order: grouped results become keyed sets,
/// top-k values a multiset.
pub fn canon(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_unstable_by(|a, b| a[0].cmp(&b[0]).then_with(|| a.cmp(b)));
    rows
}

/// Render rows the way the network edge does: one CSV line per row,
/// values in their display form.
pub fn render_lines(rs: &ResultSet) -> Vec<String> {
    rs.rows()
        .iter()
        .map(|r| r.iter().map(ToString::to_string).collect::<Vec<_>>().join(","))
        .collect()
}

/// Parse the CSV lines of a Q1 window (`x,sum` integers) back into rows.
pub fn parse_q1_lines(lines: &[String]) -> Option<Vec<Row>> {
    let mut rows = Vec::with_capacity(lines.len());
    for l in lines {
        let (a, b) = l.split_once(',')?;
        rows.push([a.parse().ok()?, b.parse().ok()?, 0, 0]);
    }
    Some(canon(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(r: &[i64]) -> Row {
        let mut row = [0; 4];
        row[..r.len()].copy_from_slice(r);
        row
    }

    #[test]
    fn q1_filters_then_sums_per_key() {
        let x = [80, 79, 85, 80, 99, 10];
        let v = [1, 2, 3, 4, 5, 6];
        assert_eq!(q1(&x, &v, 79), vec![ints(&[80, 5]), ints(&[85, 3]), ints(&[99, 5])]);
        assert!(q1(&[1, 2], &[3, 4], 79).is_empty());
    }

    #[test]
    fn q2_aggregates_over_matching_pairs() {
        // s(2,20) and s(2,30) each meet t(2,1) and t(2,3): four pairs.
        let out = q2(&[1, 2, 2], &[10, 20, 30], &[2, 2, 3], &[1, 3, 5]);
        assert_eq!(out, vec![[30, float(2.0), 0, 0]]);
        assert!(q2(&[1], &[10], &[2], &[5]).is_empty());
    }

    #[test]
    fn agg_gives_sum_count_avg_per_key() {
        let out = agg(&[1, 2, 1], &[4, 5, 7]);
        assert_eq!(out, vec![[1, 11, 2, float(5.5)], [2, 5, 1, float(5.0)]]);
    }

    #[test]
    fn topk_keeps_duplicates_as_a_multiset() {
        assert_eq!(topk(&[5, 9, 1, 9], 2), vec![ints(&[9]), ints(&[9])]);
        assert_eq!(topk(&[3], 10), vec![ints(&[3])]);
        assert_eq!(topk(&[1, 7, 3, 7, 2], 3), vec![ints(&[3]), ints(&[7]), ints(&[7])]);
    }

    #[test]
    fn engine_rows_compare_as_keyed_sets() {
        let rs = ResultSet::new(
            vec!["x".into(), "s".into()],
            vec![Column::Int(vec![99, 80]), Column::Int(vec![5, 7])],
        )
        .unwrap();
        assert_eq!(canon_result(&rs), Some(vec![ints(&[80, 7]), ints(&[99, 5])]));
        assert_eq!(render_lines(&rs), vec!["99,5".to_string(), "80,7".to_string()]);
        let parsed = parse_q1_lines(&render_lines(&rs)).unwrap();
        assert_eq!(Some(parsed), canon_result(&rs));
    }
}
