//! Percentiles, repetitions and span self-time arithmetic.

use brainsim_benchmark::run::{self, Measured};
use brainsim_benchmark::stats::{median, percentile, repetitions};
use brainsim_benchmark::trace::{self_nanos, totals_by_name, Span, Tracer};

#[test]
fn percentile_is_nearest_rank() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&sorted, 0.5), 50);
    assert_eq!(percentile(&sorted, 0.99), 99);
    assert_eq!(percentile(&sorted, 1.0), 100);
    assert_eq!(percentile(&sorted, 0.0), 1);
    assert_eq!(percentile(&[7u64], 0.99), 7);
    assert_eq!(percentile(&[1u64, 2, 3], 0.5), 2);
}

#[test]
fn medians() {
    assert_eq!(median(&[5u32, 1, 9]), 5);
    assert_eq!(median(&[4u64, 1, 3, 2]), 2);
}

#[test]
fn repetitions_are_equal_and_drop_the_remainder() {
    let samples: Vec<u32> = (0..23).collect();
    let parts: Vec<&[u32]> = repetitions(&samples, 5).collect();
    assert_eq!(parts.len(), 5);
    assert!(parts.iter().all(|p| p.len() == 4));
    assert_eq!(parts[4], &[16, 17, 18, 19]);
}

#[test]
fn best_repetition_ignores_a_slow_stretch() {
    // Repetitions of ten steps; the third is disturbed.
    let mut step_nanos = vec![1_000u32; run::REPETITIONS * 10];
    step_nanos[20..30].fill(3_000);
    let m = Measured {
        ticks: step_nanos.len() as u64 * 8,
        step_nanos,
        ..Measured::default()
    };
    let p50 = run::repetition_p50_us(&m);
    let rate = run::repetition_ticks_per_s(&m);
    assert_eq!(p50.len(), run::REPETITIONS);
    assert_eq!(p50.iter().copied().fold(f64::MAX, f64::min), 1.0);
    assert_eq!(p50[2], 3.0);
    // Eight ticks per microsecond-long step.
    let best = rate.iter().copied().fold(f64::MIN, f64::max);
    assert!((best - 8e6).abs() < 1.0, "{best}");
}

#[test]
fn no_repetition_reaches_across_two_rounds() {
    // Two rounds, the second one slow throughout and short by a step: were
    // the steps split without regard to rounds, a repetition would mix them.
    let mut step_nanos = vec![1_000u32; 40];
    step_nanos.extend([3_000; 39]);
    let m = Measured {
        ticks: step_nanos.len() as u64,
        step_nanos,
        round_steps: vec![40, 39],
        ..Measured::default()
    };
    let p50 = run::repetition_p50_us(&m);
    assert_eq!(p50.len(), run::REPETITIONS);
    let (first, second) = p50.split_at(run::REPETITIONS / 2);
    assert!(first.iter().all(|&us| us == 1.0), "{p50:?}");
    assert!(second.iter().all(|&us| us == 3.0), "{p50:?}");
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        step: 0,
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    let spans = [
        span("step", 0, 100, None),
        span("chip.inject", 5, 15, Some(0)),
        span("chip.tick", 20, 90, Some(0)),
        span("inner", 30, 50, Some(2)),
    ];
    let own = self_nanos(&spans);
    assert_eq!(own, vec![20, 10, 50, 20]);
    // Self times of a tree add up to its root.
    assert_eq!(own.iter().sum::<u64>(), spans[0].nanos());
    let totals = totals_by_name(&spans, 0);
    assert_eq!(totals["chip.tick"].nanos, 70);
    assert_eq!(totals["chip.tick"].self_nanos, 50);
    assert_eq!(totals["step"].calls, 1);
    // From index 2 on: the parent before it still loses the time.
    let late = totals_by_name(&spans, 2);
    assert!(!late.contains_key("step"));
    assert_eq!(late["chip.tick"].self_nanos, 50);
}

#[test]
fn recorded_children_never_exceed_their_parent() {
    let mut tr = Tracer::new(true);
    for step in 0..50 {
        tr.set_step(step);
        tr.span("step", |tr| {
            tr.span("a", |_| std::hint::black_box((0..100).sum::<u64>()));
            tr.span("b", |tr| tr.span("c", |_| std::hint::black_box(1)));
        });
    }
    let spans = tr.spans();
    assert_eq!(spans.len(), 50 * 4);
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        assert!(s.end_ns >= s.start_ns);
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            assert_eq!(parent.step, s.step);
            children[p as usize] += s.nanos();
        }
    }
    for (s, covered) in spans.iter().zip(children) {
        assert!(covered <= s.nanos(), "{}", s.name);
    }
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::nanos)
        .sum();
    assert_eq!(self_nanos(spans).iter().sum::<u64>(), roots);
}

#[test]
fn a_tracer_switched_off_records_nothing() {
    let mut tr = Tracer::new(false);
    assert_eq!(tr.span("step", |tr| tr.span("a", |_| 3)), 3);
    assert!(tr.spans().is_empty());
}
