//! Trace optimality of the default exploration: source DPOR with sleep sets
//! explores at most one complete schedule per Mazurkiewicz trace (Abdulla
//! et al., POPL 2014), so on every registry scenario that exhausts, the
//! distinct happens-before classes equal the explored schedules. That
//! includes the crash-recovery scenarios: a restart is dependent with every
//! transition (it needs another one enabled), so no two explored schedules
//! differ only in where a restart sits.

use scl_check::{registry, CheckConfig, Outcome};
use scl_sim::TelemetryObserver;
use std::sync::Arc;

#[test]
fn exhausting_scenarios_explore_one_schedule_per_trace() {
    let mut checked = Vec::new();
    for scenario in registry() {
        let observer = Arc::new(TelemetryObserver::new(0, 0));
        let config = CheckConfig {
            observer: Some(observer.clone()),
            ..Default::default()
        };
        let report = scenario.run(&config);
        let Outcome::Exhausted { schedules } = report.outcome else {
            continue;
        };
        let classes = observer.snapshot().hb_classes;
        assert_eq!(
            classes, schedules,
            "{}: {schedules} schedules for {classes} happens-before classes",
            scenario.name
        );
        checked.push(scenario.name);
    }
    // Eleven without faults beyond crashes, and the three that also
    // restart: recovery_tas_n2 and the durable write-behind pair.
    assert_eq!(checked.len(), 14, "{checked:?}");
}
