//! The declarative rule grammar: one rule per line, parsed from plain
//! text so packs can be committed, diffed and validated offline.
//!
//! ```text
//! # comments and blank lines are ignored
//! alert <name> [severity=info|warning|critical] [for=<dur>] when <condition>
//! ```
//!
//! Conditions:
//!
//! ```text
//! <expr> <op> <number>                  a query expression against a threshold
//! counter_stall <metric>                no progress (absent, or total unchanged)
//! hist <metric> p50|p90|p99 <op> <number>   histogram quantile
//! phase_stuck <dur>                     pipeline.phase unchanged beyond the budget
//! ```
//!
//! `<expr>` is the [`opad_tsdb`] query grammar that `GET /query` and
//! `obsctl watch` read (see [`opad_tsdb::parse_expr`]): a bare metric
//! name reads the frame — the gauge of that name, or else the counter's
//! running total — and a window function
//! (`rate(pipeline.seeds_attacked, 10s) > 0.5`,
//! `quantile_over_time(g, 0.9, 1m) >= 2`) reads the attached history
//! store at the frame clock. Without the metric, without a store, or
//! when the window cannot answer, the condition is false (absence of
//! evidence is not a breach).
//!
//! `<op>` is one of `> < >= <=`; `<dur>` is the one duration grammar,
//! [`opad_tsdb::parse_duration_ms`] (`250ms`, `10s`, `2m`, `1h`). A
//! rule's `for=` duration is the hysteresis budget: the condition must
//! hold continuously that long before the alert fires (see
//! [`engine`](crate::engine) for the lifecycle).
//!
//! The three predicates are what no expression says the same way:
//! `counter_stall` also fires for a counter that never appeared (a
//! window over an unknown series is an error), `hist` reads the summary
//! of every observation so far (the history plane rings no histograms,
//! and envelopes carry only summaries), and `phase_stuck` exempts the
//! idle and done phases.

use opad_tsdb::{parse_duration_ms, parse_expr, Expr};
use std::fmt;

/// How loudly a firing rule should be treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; nothing is wrong yet.
    Info,
    /// Needs a look; the run can continue.
    Warning,
    /// The run's output should not be trusted until resolved.
    Critical,
}

impl Severity {
    /// The lowercase wire/label form.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    /// Parses the lowercase form back.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A threshold comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
}

impl Cmp {
    /// Applies the comparison.
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Gt => lhs > rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Le => lhs <= rhs,
        }
    }

    /// The source-text operator.
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Lt => "<",
            Cmp::Ge => ">=",
            Cmp::Le => "<=",
        }
    }

    fn parse(s: &str) -> Option<Cmp> {
        match s {
            ">" => Some(Cmp::Gt),
            "<" => Some(Cmp::Lt),
            ">=" => Some(Cmp::Ge),
            "<=" => Some(Cmp::Le),
            _ => None,
        }
    }
}

/// A histogram quantile a rule may threshold on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantile {
    /// Median.
    P50,
    /// 90th percentile.
    P90,
    /// 99th percentile.
    P99,
}

impl Quantile {
    /// The source-text form.
    pub fn as_str(self) -> &'static str {
        match self {
            Quantile::P50 => "p50",
            Quantile::P90 => "p90",
            Quantile::P99 => "p99",
        }
    }

    fn parse(s: &str) -> Option<Quantile> {
        match s {
            "p50" => Some(Quantile::P50),
            "p90" => Some(Quantile::P90),
            "p99" => Some(Quantile::P99),
            _ => None,
        }
    }
}

/// What a rule watches.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// A query expression against a threshold (`reliability.pfd_mean >
    /// 0.05`, `rate(c, 10s) < 0.5`). A bare name reads the frame's gauge
    /// of that name, or else the counter's total; a window evaluates
    /// through the [`opad_tsdb`] store the engine was handed. A metric
    /// the frame lacks, a missing store, or a window that cannot answer
    /// (unknown series, too few samples) makes the condition false.
    Compare {
        /// The expression read at the frame clock.
        expr: Expr,
        /// Comparison direction.
        cmp: Cmp,
        /// Threshold value.
        threshold: f64,
    },
    /// A counter making no progress: either it has never appeared, or
    /// its total stopped moving between evaluations. The rule's `for=`
    /// duration is the grace budget.
    CounterStall {
        /// Counter name.
        metric: String,
    },
    /// A histogram quantile against a threshold. Empty histograms make
    /// the condition false.
    HistQuantile {
        /// Histogram name.
        metric: String,
        /// Which quantile to threshold.
        q: Quantile,
        /// Comparison direction.
        cmp: Cmp,
        /// Threshold value.
        threshold: f64,
    },
    /// The watchdog: `pipeline.phase` reporting the same *working*
    /// phase for longer than `budget_ms`. `idle` and `done` are exempt
    /// (a parked pipeline is not stuck); unknown phase codes are not.
    PhaseStuck {
        /// How long one phase may persist before the condition holds.
        budget_ms: f64,
    },
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Compare {
                expr,
                cmp,
                threshold,
            } => write!(f, "{expr} {} {threshold}", cmp.symbol()),
            Condition::CounterStall { metric } => write!(f, "counter_stall {metric}"),
            Condition::HistQuantile {
                metric,
                q,
                cmp,
                threshold,
            } => write!(
                f,
                "hist {metric} {} {} {threshold}",
                q.as_str(),
                cmp.symbol()
            ),
            Condition::PhaseStuck { budget_ms } => write!(f, "phase_stuck {budget_ms}ms"),
        }
    }
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Unique alert name (the `alertname` label).
    pub name: String,
    /// How loud a firing instance is.
    pub severity: Severity,
    /// Hysteresis: how long the condition must hold continuously before
    /// the alert moves from pending to firing. `0` fires on the first
    /// true evaluation.
    pub for_ms: f64,
    /// What the rule watches.
    pub condition: Condition,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alert {} severity={} for={}ms when {}",
            self.name, self.severity, self.for_ms, self.condition
        )
    }
}

/// A rule-file parse problem, with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line in the rule text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn parse_condition(tokens: &[&str]) -> Result<Condition, String> {
    let threshold = |op: &str, value: &str| -> Result<(Cmp, f64), String> {
        let cmp = Cmp::parse(op).ok_or_else(|| format!("unknown operator {op:?}"))?;
        let threshold: f64 = value
            .parse()
            .map_err(|_| format!("threshold {value:?} is not a number"))?;
        if !threshold.is_finite() {
            return Err(format!("threshold {value:?} must be finite"));
        }
        Ok((cmp, threshold))
    };
    match tokens {
        ["counter_stall", metric] => Ok(Condition::CounterStall {
            metric: metric.to_string(),
        }),
        ["hist", metric, quantile, op, value] => {
            let q = Quantile::parse(quantile)
                .ok_or_else(|| format!("unknown quantile {quantile:?} (p50|p90|p99)"))?;
            let (cmp, threshold) = threshold(op, value)?;
            Ok(Condition::HistQuantile {
                metric: metric.to_string(),
                q,
                cmp,
                threshold,
            })
        }
        ["phase_stuck", budget] => {
            let budget_ms = parse_duration_ms(budget)
                .map_err(|_| format!("bad duration {budget:?} (e.g. 30s, 2m)"))?;
            Ok(Condition::PhaseStuck { budget_ms })
        }
        // Everything before the last two tokens is the expression, so a
        // window's own spacing (`rate(c,10s)`, `rate( c , 10s )`) is free.
        [expr @ .., op, value] if !expr.is_empty() => {
            let (cmp, threshold) = threshold(op, value)?;
            let expr = parse_expr(&expr.join(" ")).map_err(|e| format!("bad expression: {e}"))?;
            Ok(Condition::Compare {
                expr,
                cmp,
                threshold,
            })
        }
        _ => Err(
            "expected `<expr> <op> <number>`, `counter_stall <metric>`, \
             `hist <metric> p50|p90|p99 <op> <number>` or `phase_stuck <dur>`"
                .to_string(),
        ),
    }
}

fn parse_rule_line(line: &str) -> Result<Rule, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let ["alert", name, rest @ ..] = tokens.as_slice() else {
        return Err("rule lines start with `alert <name>`".to_string());
    };
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        || name.is_empty()
    {
        return Err(format!("alert name {name:?} must be [A-Za-z0-9_-]+"));
    }
    let mut severity = Severity::Warning;
    let mut for_ms = 0.0;
    let mut idx = 0;
    while idx < rest.len() && rest[idx] != "when" {
        let opt = rest[idx];
        if let Some(v) = opt.strip_prefix("severity=") {
            severity = Severity::parse(v).ok_or_else(|| format!("unknown severity {v:?}"))?;
        } else if let Some(v) = opt.strip_prefix("for=") {
            for_ms = parse_duration_ms(v)
                .map_err(|_| format!("bad duration {v:?} (e.g. 250ms, 10s, 2m)"))?;
        } else {
            return Err(format!("unexpected token {opt:?} before `when`"));
        }
        idx += 1;
    }
    if idx >= rest.len() {
        return Err("missing `when <condition>`".to_string());
    }
    let condition = parse_condition(&rest[idx + 1..])?;
    Ok(Rule {
        name: name.to_string(),
        severity,
        for_ms,
        condition,
    })
}

/// Parses a whole rule file. Comments (`#`) and blank lines are
/// skipped; every malformed line becomes one [`ParseError`] (parsing
/// continues, so a file reports all its problems at once). Duplicate
/// alert names are an error — the engine keys state by name.
pub fn parse_rules(text: &str) -> (Vec<Rule>, Vec<ParseError>) {
    let mut rules: Vec<Rule> = Vec::new();
    let mut errors = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match parse_rule_line(line) {
            Ok(rule) => {
                if rules.iter().any(|r| r.name == rule.name) {
                    errors.push(ParseError {
                        line: i + 1,
                        message: format!("duplicate alert name {:?}", rule.name),
                    });
                } else {
                    rules.push(rule);
                }
            }
            Err(message) => errors.push(ParseError {
                line: i + 1,
                message,
            }),
        }
    }
    (rules, errors)
}

/// Validates every metric reference in `rules` against the workspace
/// vocabulary ([`opad_telemetry::vocab`]): the name must be known *and*
/// published as a kind the condition reads. Returns one human-readable
/// problem string per mismatch; empty means the pack is clean.
pub fn check_vocabulary(rules: &[Rule]) -> Vec<String> {
    use opad_telemetry::vocab::{kind_of, MetricKind};
    let mut problems = Vec::new();
    for rule in rules {
        // The kind the condition reads; `None` for a bare name, which
        // reads a gauge or a counter.
        let (metric, want) = match &rule.condition {
            Condition::Compare {
                expr: Expr::Latest(metric),
                ..
            } => (metric, None),
            // A window function dictates its input kind: rate() reads a
            // counter's history, the *_over_time family a gauge's.
            Condition::Compare {
                expr: Expr::Window(w),
                ..
            } => (&w.metric, Some(w.func.expected_kind())),
            Condition::CounterStall { metric } => (metric, Some(MetricKind::Counter)),
            Condition::HistQuantile { metric, .. } => (metric, Some(MetricKind::Histogram)),
            Condition::PhaseStuck { .. } => continue, // reads the known phase gauge
        };
        let name = &rule.name;
        match (kind_of(metric), want) {
            (None, _) => problems.push(format!(
                "rule {name:?}: unknown metric {metric:?} (not in the published vocabulary)"
            )),
            (Some(MetricKind::Histogram), None) => problems.push(format!(
                "rule {name:?}: metric {metric:?} is a Histogram, but a bare name reads a \
                 Gauge or Counter (use `hist {metric} p50|p90|p99`)"
            )),
            (Some(kind), Some(want)) if kind != want => problems.push(format!(
                "rule {name:?}: metric {metric:?} is a {kind:?}, but the condition reads a {want:?}"
            )),
            _ => {}
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_and_phase_stuck_read_the_one_duration_grammar() {
        let (rules, errors) = parse_rules(
            "\
alert zero for=0ms when pipeline.round > 1
alert hour for=1h when pipeline.round > 1
alert exp for=1e3ms when phase_stuck 0.5m
alert neg for=-1s when pipeline.round > 1
alert unitless when phase_stuck 10
",
        );
        let for_ms: Vec<f64> = rules.iter().map(|r| r.for_ms).collect();
        assert_eq!(for_ms, [0.0, 3_600_000.0, 1_000.0]);
        assert_eq!(
            rules[2].condition,
            Condition::PhaseStuck {
                budget_ms: 30_000.0
            }
        );
        let lines: Vec<usize> = errors.iter().map(|e| e.line).collect();
        assert_eq!(lines, [4, 5], "{errors:?}");
        assert!(errors.iter().all(|e| e.message.contains("bad duration")));
    }

    #[test]
    fn a_full_rule_file_parses() {
        let text = "\
# pack header comment
alert pfd_breach severity=critical for=500ms when reliability.pfd_mean > 0.05
alert fuzz_dead for=10s when counter_stall attack.fuzz.accepted   # trailing comment
alert slow_pgd when hist attack.pgd.iters_to_success p99 >= 14
alert stuck severity=critical when phase_stuck 30s
alert few_seeds when pipeline.seeds_attacked < 1
";
        let (rules, errors) = parse_rules(text);
        assert_eq!(errors, Vec::new());
        assert_eq!(rules.len(), 5);
        assert_eq!(rules[0].name, "pfd_breach");
        assert_eq!(rules[0].severity, Severity::Critical);
        assert_eq!(rules[0].for_ms, 500.0);
        assert_eq!(
            rules[0].condition,
            Condition::Compare {
                expr: Expr::Latest("reliability.pfd_mean".to_string()),
                cmp: Cmp::Gt,
                threshold: 0.05,
            }
        );
        assert_eq!(rules[1].severity, Severity::Warning, "default severity");
        assert_eq!(rules[2].for_ms, 0.0, "default for-duration");
        assert_eq!(
            rules[3].condition,
            Condition::PhaseStuck {
                budget_ms: 30_000.0
            }
        );
    }

    #[test]
    fn malformed_lines_each_report_with_their_line_number() {
        let text = "\
alert ok when pipeline.round >= 0
alert bad-op when pipeline.round >> 1
not_a_rule
alert ok when par.tasks > 0
alert noq when hist par.task_us p42 > 1
alert nofor for=10 when pipeline.round > 0
alert keyword when gauge pipeline.round > 0
";
        let (rules, errors) = parse_rules(text);
        assert_eq!(rules.len(), 1, "{errors:?}");
        let lines: Vec<usize> = errors.iter().map(|e| e.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6, 7]);
        assert!(errors[2].message.contains("duplicate"), "{:?}", errors[2]);
        // The `gauge`/`counter` keywords are gone: `gauge m` is no name.
        assert!(
            errors[5].message.contains("bad expression"),
            "{:?}",
            errors[5]
        );
        assert!(errors[0].to_string().starts_with("line 2:"));
    }

    #[test]
    fn vocabulary_check_flags_unknown_names_and_kind_mismatches() {
        let (rules, errors) = parse_rules(
            "\
alert ok when reliability.pfd_mean > 0.1
alert ok_counter when pipeline.seeds_attacked > 0
alert typo when reliability.pfd_meen > 0.1
alert wrong_kind when counter_stall pipeline.round
alert watchdog when phase_stuck 5s
alert bare_hist when attack.fuzz.naturalness < -25
",
        );
        assert!(errors.is_empty());
        let problems = check_vocabulary(&rules);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems[0].contains("pfd_meen"));
        assert!(problems[1].contains("Gauge"), "{}", problems[1]);
        // A bare comparison reads a gauge or a counter, never a histogram.
        assert!(
            problems[2].contains("bare_hist") && problems[2].contains("Histogram"),
            "{}",
            problems[2]
        );
    }

    #[test]
    fn detector_plane_metrics_are_watchable() {
        // The detector zoo publishes `detector.*` metrics; rules over
        // them must clear the vocabulary check so a silent-detector
        // watchdog can actually be written.
        let (rules, errors) = parse_rules(
            "\
alert detector_idle for=10s when counter_stall detector.scored
alert detector_never_fit when detector.fit_rows < 1
alert suspicious_world when hist detector.score p50 > 100.0
alert attack_never_lands for=10s when counter_stall attack.pgd.success
",
        );
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(check_vocabulary(&rules), Vec::<String>::new());
    }

    #[test]
    fn window_conditions_parse_via_the_tsdb_grammar() {
        use opad_tsdb::{WindowExpr, WindowFn};
        let text = "\
alert seed_rate_stall severity=warning for=1s when rate(pipeline.seeds_attacked, 10s) < 0.5
alert pfd_drifting when avg_over_time(pipeline.pfd_mean, 30s) > 0.05
alert spiky when quantile_over_time(pipeline.pfd_mean, 0.9, 1m) >= 0.2
alert tight when delta(pipeline.round,5s) <= 0
";
        let (rules, errors) = parse_rules(text);
        assert_eq!(errors, Vec::new());
        assert_eq!(rules.len(), 4);
        assert_eq!(
            rules[0].condition,
            Condition::Compare {
                expr: Expr::Window(WindowExpr {
                    func: WindowFn::Rate,
                    metric: "pipeline.seeds_attacked".to_string(),
                    window_ms: 10_000.0,
                }),
                cmp: Cmp::Lt,
                threshold: 0.5,
            }
        );
        // Tight spacing tokenises as a single token and still parses.
        assert!(matches!(
            &rules[3].condition,
            Condition::Compare {
                expr: Expr::Window(_),
                ..
            }
        ));
    }

    #[test]
    fn window_condition_parse_errors_are_reported() {
        let bad = [
            "alert a when rate(c, 10s)",          // missing op/threshold
            "alert a when rate(c) > 1",           // missing window
            "alert a when deriv(c, 10s) > 1",     // unknown function
            "alert a when rate(c, 10s > 1",       // missing ')'
            "alert a when rate(c, 10s) >> 1",     // bad operator
            "alert a when rate(c, 10s) > banana", // bad threshold
            "alert a when rate(c, 0s) > 1",       // zero window
        ];
        for text in bad {
            let (rules, errors) = parse_rules(text);
            assert!(rules.is_empty(), "{text} parsed: {rules:?}");
            assert_eq!(errors.len(), 1, "{text}");
        }
    }

    #[test]
    fn window_conditions_validate_against_the_vocabulary() {
        let (rules, errors) = parse_rules(
            "\
alert ok_rate when rate(pipeline.seeds_attacked, 10s) < 1
alert ok_avg when avg_over_time(pipeline.pfd_mean, 30s) > 0.1
alert rate_of_gauge when rate(pipeline.pfd_mean, 10s) > 1
alert avg_of_counter when avg_over_time(pipeline.seeds_attacked, 10s) > 1
alert unknown_series when rate(pipeline.seeds_attacked_typo, 10s) > 1
",
        );
        assert!(errors.is_empty(), "{errors:?}");
        let problems = check_vocabulary(&rules);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems[0].contains("Gauge"), "{}", problems[0]);
        assert!(problems[1].contains("Counter"), "{}", problems[1]);
        assert!(problems[2].contains("typo"), "{}", problems[2]);
    }

    #[test]
    fn rules_render_back_to_parseable_text() {
        for text in [
            "alert x severity=info for=2s when hist attack.fuzz.naturalness p50 < -20",
            "alert w for=1h when reliability.pfd_mean >= 0.05",
            "alert y for=1s when rate(pipeline.seeds_attacked, 10s) < 0.5",
            "alert z when quantile_over_time(pipeline.pfd_mean, 0.9, 30s) >= 0.2",
        ] {
            let (rules, errors) = parse_rules(text);
            assert!(errors.is_empty(), "{text}: {errors:?}");
            let rendered = rules[0].to_string();
            let (reparsed, errors) = parse_rules(&rendered);
            assert!(errors.is_empty(), "{rendered}: {errors:?}");
            assert_eq!(reparsed[0], rules[0]);
        }
    }
}
