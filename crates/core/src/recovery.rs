//! Recovery orchestration: turning a chaos run into the operator's view.
//!
//! The engine executes a [`FaultSchedule`] and reports what happened
//! (terminal requests, per-instance downtime); this module supplies the
//! orchestration-side glue: assembly of the [`AvailabilityReport`] from
//! a run's goodput series plus its schedule — the numbers the §4.3
//! replanning loop and CI gate on.

use distserve_engine::SimOutcome;
use distserve_faults::{
    AvailabilityReport, Fault, FaultKind, FaultSchedule, GoodputSample, UnavailabilityWindow,
};

/// Derives per-instance unavailability windows from the *declared*
/// schedule: a crash closes after its declared downtime, a drain after
/// its maintenance window, a GPU loss never closes (the hardware is
/// gone until replanning replaces the instance). Faults that merely
/// slow service (stragglers, link degradation, single transfer
/// failures) produce no window. Engine-measured downtime
/// ([`distserve_engine::sim::InstanceStats::downtime_secs`]) includes
/// drain-to-idle and restart slack on top of these declared spans.
#[must_use]
pub fn unavailability_from_schedule(schedule: &FaultSchedule) -> Vec<UnavailabilityWindow> {
    schedule
        .faults()
        .iter()
        .filter_map(|f: &Fault| match f.kind {
            FaultKind::InstanceCrash {
                instance,
                downtime_secs,
            } => Some(UnavailabilityWindow {
                instance,
                start_s: f.at,
                end_s: Some(f.at + downtime_secs),
            }),
            FaultKind::Drain {
                instance,
                maintenance_secs,
            } => Some(UnavailabilityWindow {
                instance,
                start_s: f.at,
                end_s: Some(f.at + maintenance_secs),
            }),
            FaultKind::GpuLoss { instance } => Some(UnavailabilityWindow {
                instance,
                start_s: f.at,
                end_s: None,
            }),
            FaultKind::LinkDegradation { .. }
            | FaultKind::Straggler { .. }
            | FaultKind::KvTransferFailure { .. } => None,
        })
        .collect()
}

/// Assembles the availability report for one chaos run: goodput
/// baseline/dip/recovery from the windowed series, unavailability from
/// the declared schedule, and request counts from the engine outcome.
/// `retries` comes from the run's metrics (re-dispatch plus KV-transfer
/// retries) since the outcome only keeps terminal states.
#[must_use]
pub fn assemble_report(
    samples: &[GoodputSample],
    schedule: &FaultSchedule,
    outcome: &SimOutcome,
    retries: u64,
) -> AvailabilityReport {
    let first_fault = schedule.faults().first().map_or(f64::INFINITY, |f| f.at);
    let mut report = AvailabilityReport::from_series(
        samples,
        first_fault,
        unavailability_from_schedule(schedule),
    );
    report.faults_injected = schedule.len() as u64;
    report.retries = retries;
    report.finished = outcome.records.len() as u64;
    report.rejected = outcome.rejected.len() as u64;
    report.failed_requests = outcome.failed.len() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_simcore::SimTime;

    fn empty_outcome() -> SimOutcome {
        SimOutcome {
            records: vec![],
            rejected: vec![],
            failed: vec![],
            makespan: SimTime::ZERO,
            instances: vec![],
        }
    }

    #[test]
    fn schedule_windows_classify_fault_kinds() {
        let s = FaultSchedule::new()
            .with(
                1.0,
                FaultKind::InstanceCrash {
                    instance: 0,
                    downtime_secs: 3.0,
                },
            )
            .with(2.0, FaultKind::GpuLoss { instance: 1 })
            .with(
                3.0,
                FaultKind::Straggler {
                    instance: 2,
                    factor: 2.0,
                    duration_secs: 1.0,
                },
            )
            .with(
                4.0,
                FaultKind::Drain {
                    instance: 3,
                    maintenance_secs: 2.0,
                },
            );
        let w = unavailability_from_schedule(&s);
        // The straggler slows but never takes the instance down.
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].end_s, Some(4.0));
        assert_eq!(w[1].instance, 1);
        assert_eq!(w[1].end_s, None);
        assert_eq!(w[2].end_s, Some(6.0));
    }

    #[test]
    fn assembled_report_carries_counts_and_serializes() {
        let s = FaultSchedule::new().with(
            2.0,
            FaultKind::InstanceCrash {
                instance: 0,
                downtime_secs: 1.0,
            },
        );
        let samples: Vec<GoodputSample> = (0..8)
            .map(|i| GoodputSample {
                start_s: f64::from(i),
                goodput_rps: if i == 2 { 1.0 } else { 4.0 },
            })
            .collect();
        let report = assemble_report(&samples, &s, &empty_outcome(), 5);
        assert_eq!(report.faults_injected, 1);
        assert_eq!(report.retries, 5);
        assert!((report.baseline_goodput_rps - 4.0).abs() < 1e-12);
        assert!((report.dip_goodput_rps - 1.0).abs() < 1e-12);
        assert_eq!(report.recovery_secs, Some(1.0));
        assert_eq!(report.mttr_secs, Some(1.0));
        let json = report.to_json();
        let _: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    }

    #[test]
    fn report_without_faults_has_no_dip() {
        let samples = [GoodputSample {
            start_s: 0.0,
            goodput_rps: 3.0,
        }];
        let report = assemble_report(&samples, &FaultSchedule::new(), &empty_outcome(), 0);
        assert_eq!(report.faults_injected, 0);
        assert!((report.dip_goodput_rps - report.baseline_goodput_rps).abs() < 1e-12);
    }
}
