//! Paired parent-versus-change comparison of benchmark results. A gain
//! needs at least ten pairs, the change winning nine tenths of them
//! (ties count for neither) and a median shift larger than the spread
//! between the parent's own runs; a regression is a median worse than
//! the parent's by more than the metric's bound; a metric whose
//! run-to-run spread is wider than its bound is unresolved unless every
//! change run beats every parent run.

use crate::json::{self, Value};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// What `BENCHMARK.json` says about one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (`None` for per-layer metrics, which have no bound).
    pub bound: Option<f64>,
}

/// Reads metric specs from a `BENCHMARK.json` document.
///
/// # Errors
///
/// Malformed JSON or a metric without a valid `name` / `better`.
pub fn specs(benchmark_json: &str) -> Result<BTreeMap<String, Spec>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let list = doc
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        for m in list {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{name}: better must be \"higher\" or \"lower\"")),
            };
            let bound = m.get("bound").and_then(Value::as_f64);
            out.insert(name.to_string(), Spec { better, bound });
        }
    }
    Ok(out)
}

/// One benchmark run: its workload and its metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name, from the `# bench workload=…` header.
    pub workload: String,
    /// Whether the run's outputs checked out.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the saved standard output of one `bench` run: the header line
/// names the workload, the last non-empty line is the result.
///
/// # Errors
///
/// A missing header or a malformed result line.
pub fn parse_run(text: &str) -> Result<RunResult, String> {
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix("# bench workload="))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no `# bench workload=` header")?
        .to_string();
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let v = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let correct = v
        .get("correct")
        .and_then(Value::as_bool)
        .ok_or("no `correct`")?;
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("no `metrics`")?
        .iter()
        .map(|(k, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("{k}: no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult {
        workload,
        correct,
        metrics,
    })
}

/// The comparison's conclusion for one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The gain rule holds.
    Improved,
    /// Worse than the parent by more than the bound (for per-layer
    /// metrics: the gain rule holds the other way).
    Worse,
    /// Within the bound.
    Unchanged,
    /// Spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;
/// Share of pairs the change must win.
pub const WIN_SHARE: f64 = 0.9;

/// One compared row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Parent quartiles (q1, median, q3).
    pub parent: [f64; 3],
    /// Change quartiles (q1, median, q3).
    pub change: [f64; 3],
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs the change lost.
    pub losses: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// Conclusion.
    pub verdict: Verdict,
}

fn quartiles(v: &[f64]) -> [f64; 3] {
    match v {
        [] => [f64::NAN; 3],
        [x] => [*x; 3],
        _ => stats::quartiles(v).unwrap_or([f64::NAN; 3]),
    }
}

/// Relative spread (interquartile range over |median|); 0 for a
/// constant metric.
fn rel_spread(q: [f64; 3]) -> f64 {
    let iqr = q[2] - q[0];
    if iqr == 0.0 {
        0.0
    } else {
        iqr / q[1].abs()
    }
}

/// Decides one row from paired samples (`parent[i]` ran next to
/// `change[i]`).
pub fn compare(parent: &[f64], change: &[f64], spec: &Spec) -> (Verdict, usize, usize) {
    let dir = match spec.better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let (mut wins, mut losses) = (0, 0);
    for (p, c) in parent.iter().zip(change) {
        let d = (c - p) * dir;
        if d > 0.0 {
            wins += 1;
        } else if d < 0.0 {
            losses += 1;
        }
    }
    let pairs = parent.len().min(change.len());
    let (qp, qc) = (quartiles(parent), quartiles(change));
    let gain = (qc[1] - qp[1]) * dir;
    let iqr_p = qp[2] - qp[0];
    let rule = |won: usize, shift: f64| {
        pairs >= MIN_PAIRS && won as f64 >= WIN_SHARE * pairs as f64 && shift > iqr_p
    };
    if rule(wins, gain) {
        return (Verdict::Improved, wins, losses);
    }
    let Some(bound) = spec.bound else {
        let v = if rule(losses, -gain) {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        };
        return (v, wins, losses);
    };
    let all_better = match spec.better {
        Better::Higher => {
            change.iter().copied().fold(f64::INFINITY, f64::min)
                > parent.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
        Better::Lower => {
            change.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                < parent.iter().copied().fold(f64::INFINITY, f64::min)
        }
    };
    let worse_by = if gain >= 0.0 {
        0.0
    } else if qp[1] == 0.0 {
        f64::INFINITY
    } else {
        -gain / qp[1].abs()
    };
    let v = if rel_spread(qp).max(rel_spread(qc)) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    (v, wins, losses)
}

/// Compares every workload × metric present on both sides. Runs pair
/// up in file order within each workload.
pub fn diff(
    parent: &[RunResult],
    change: &[RunResult],
    specs: &BTreeMap<String, Spec>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    let workloads: std::collections::BTreeSet<&str> =
        parent.iter().map(|r| r.workload.as_str()).collect();
    for w in workloads {
        let p: Vec<&RunResult> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&RunResult> = change.iter().filter(|r| r.workload == w).collect();
        let pairs = p.len().min(c.len());
        let names: Vec<&String> = p
            .first()
            .map(|r| r.metrics.keys().collect())
            .unwrap_or_default();
        for name in names {
            let Some(spec) = specs.get(name) else {
                continue;
            };
            let pv: Vec<f64> = p[..pairs]
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let cv: Vec<f64> = c[..pairs]
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            if pv.len() != pairs || cv.len() != pairs || pairs == 0 {
                continue;
            }
            let (verdict, wins, losses) = compare(&pv, &cv, spec);
            rows.push(Row {
                workload: w.to_string(),
                metric: name.clone(),
                parent: quartiles(&pv),
                change: quartiles(&cv),
                wins,
                losses,
                pairs,
                verdict,
            });
        }
    }
    rows
}

/// Renders rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<28} {:>32} {:>32} {:>8} {:>7}  verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins"
    );
    for r in rows {
        let delta = if r.parent[1] == 0.0 {
            0.0
        } else {
            (r.change[1] / r.parent[1] - 1.0) * 100.0
        };
        let q = |v: [f64; 3]| format!("{:.5} [{:.5}, {:.5}]", v[1], v[0], v[2]);
        let _ = writeln!(
            out,
            "{:<12} {:<28} {:>32} {:>32} {:>7.2}% {:>3}/{:<3}  {}",
            r.workload,
            r.metric,
            q(r.parent),
            q(r.change),
            delta,
            r.wins,
            r.pairs,
            r.verdict.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPECS: &str = r#"{"end_to_end":[
        {"name":"run_ms_p50","unit":"ms","better":"lower","bound":0.1},
        {"name":"host_mips","unit":"MIPS","better":"higher","bound":0.1}],
        "per_layer":[{"name":"vliw.ns_per_packet","unit":"ns","better":"lower"}]}"#;

    fn spec(name: &str) -> Spec {
        specs(SPECS).unwrap()[name].clone()
    }

    /// Ten values around `center` with a ±1% wobble.
    fn around(center: f64, phase: usize) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + 0.01 * (((i + phase) % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn a_clear_win_is_improved() {
        let (v, wins, _) = compare(&around(100.0, 0), &around(80.0, 0), &spec("run_ms_p50"));
        assert_eq!((v, wins), (Verdict::Improved, 10));
        let (v, _, _) = compare(&around(100.0, 0), &around(120.0, 0), &spec("host_mips"));
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn noise_is_unchanged_and_a_shift_past_the_bound_is_worse() {
        let s = spec("run_ms_p50");
        assert_eq!(
            compare(&around(100.0, 0), &around(100.0, 2), &s).0,
            Verdict::Unchanged
        );
        assert_eq!(
            compare(&around(100.0, 0), &around(104.0, 0), &s).0,
            Verdict::Unchanged
        );
        assert_eq!(
            compare(&around(100.0, 0), &around(115.0, 0), &s).0,
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let wide: Vec<f64> = (0..10).map(|i| 100.0 + 10.0 * f64::from(i)).collect();
        let s = spec("run_ms_p50");
        assert_eq!(compare(&wide, &wide, &s).0, Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let better: Vec<f64> = wide.iter().map(|x| x - 200.0).collect();
        assert_ne!(compare(&wide, &better, &s).0, Verdict::Unresolved);
    }

    #[test]
    fn wins_need_ten_pairs_and_nine_tenths() {
        let s = spec("run_ms_p50");
        let p = around(100.0, 0);
        let c = around(80.0, 0);
        assert_eq!(
            compare(&p[..9], &c[..9], &s).0,
            Verdict::Unchanged,
            "nine pairs"
        );
        let mut c2 = c.clone();
        c2[0] = 200.0;
        c2[1] = 200.0; // two losses: 8/10 wins
        assert_ne!(compare(&p, &c2, &s).0, Verdict::Improved);
    }

    #[test]
    fn exact_metrics_tie_and_per_layer_metrics_have_no_bound() {
        let same = vec![3.25; 10];
        let (v, wins, losses) = compare(&same, &same, &spec("host_mips"));
        assert_eq!((v, wins, losses), (Verdict::Unchanged, 0, 0));
        let s = spec("vliw.ns_per_packet");
        assert_eq!(s.bound, None);
        assert_eq!(
            compare(&around(30.0, 0), &around(36.0, 0), &s).0,
            Verdict::Worse
        );
        assert_eq!(
            compare(&around(30.0, 0), &around(30.3, 1), &s).0,
            Verdict::Unchanged
        );
    }

    #[test]
    fn runs_parse_and_pair_by_workload() {
        let out = |w: &str, v: f64| {
            format!(
                "# bench workload={w} seed=1\nmetric run_ms_p50 {v} ms\n{{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{{\"run_ms_p50\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}\n"
            )
        };
        let parent: Vec<RunResult> = (0..10)
            .flat_map(|i| [out("a", 100.0 + f64::from(i) * 0.1), out("b", 50.0)])
            .map(|t| parse_run(&t).unwrap())
            .collect();
        let change: Vec<RunResult> = (0..10)
            .flat_map(|i| [out("a", 70.0 + f64::from(i) * 0.1), out("b", 50.0)])
            .map(|t| parse_run(&t).unwrap())
            .collect();
        let rows = diff(&parent, &change, &specs(SPECS).unwrap());
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].verdict),
            ("a", Verdict::Improved)
        );
        assert_eq!(
            (rows[1].workload.as_str(), rows[1].verdict),
            ("b", Verdict::Unchanged)
        );
        assert!(render(&rows).contains("improved"));
        assert!(parse_run("{\"correct\":true}").is_err(), "header required");
    }
}
