//! A [`Probe`] that feeds the metrics registry.

use crate::MetricsRegistry;
use dda_core::pipeline::{Probe, TraceEvent, TraceId};

/// A pipeline probe that records stage/GCD/refinement telemetry into a
/// shared [`MetricsRegistry`]; its per-stage call counts and wall time
/// are read back with [`MetricsRegistry::stage_timings`].
///
/// Recording is allocation-free: the interesting events carry only
/// `Copy` payloads and each lands as a few relaxed atomic adds. Events
/// with owned payloads (`Reduced`, `Witness`, `Directions`, ...) are
/// consumed by value exactly like every other probe, so the analyzer's
/// behaviour is identical to running with `NullProbe` — the
/// determinism proptests in `tests/obs.rs` pin that down.
///
/// A probe built with [`scoped`](MetricsProbe::scoped) additionally
/// *tees* every recording into a request-local registry (the
/// [`TraceContext`](crate::TraceContext) delta) and carries the
/// request's [`TraceId`] — one more relaxed atomic add per event, still
/// lock- and allocation-free.
#[derive(Debug)]
pub struct MetricsProbe<'a> {
    registry: &'a MetricsRegistry,
    local: Option<&'a MetricsRegistry>,
    trace: Option<TraceId>,
}

impl<'a> MetricsProbe<'a> {
    /// Creates a probe recording into `registry`.
    pub fn new(registry: &'a MetricsRegistry) -> Self {
        MetricsProbe {
            registry,
            local: None,
            trace: None,
        }
    }

    /// Creates a probe recording into `registry` and, when a request
    /// scope is attached, teeing the same events into its local
    /// registry under its trace id.
    pub fn scoped(
        registry: &'a MetricsRegistry,
        local: Option<&'a MetricsRegistry>,
        trace: Option<TraceId>,
    ) -> Self {
        MetricsProbe {
            registry,
            local,
            trace,
        }
    }
}

impl Probe for MetricsProbe<'_> {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Stage {
                test,
                verdict,
                nanos,
            } => {
                self.registry.record_stage(test, verdict, nanos);
                if let Some(local) = self.local {
                    local.record_stage(test, verdict, nanos);
                }
            }
            TraceEvent::Gcd {
                verdict,
                cached,
                nanos,
            } => {
                self.registry.record_gcd(verdict, cached, nanos);
                if let Some(local) = self.local {
                    local.record_gcd(verdict, cached, nanos);
                }
            }
            TraceEvent::Directions { tests, nanos, .. } => {
                self.registry.record_refinement(tests, nanos);
                if let Some(local) = self.local {
                    local.record_refinement(tests, nanos);
                }
            }
            _ => {}
        }
    }

    fn trace(&self) -> Option<TraceId> {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_core::pipeline::{GcdVerdict, StageVerdict};
    use dda_core::result::DistanceVector;
    use dda_core::TestKind;

    #[test]
    fn probe_routes_events_into_registry() {
        let reg = MetricsRegistry::new();
        let mut probe = MetricsProbe::new(&reg);
        probe.record(TraceEvent::Stage {
            test: TestKind::Svpc,
            verdict: StageVerdict::Independent,
            nanos: 10,
        });
        probe.record(TraceEvent::Gcd {
            verdict: GcdVerdict::Lattice,
            cached: false,
            nanos: 20,
        });
        probe.record(TraceEvent::Gcd {
            verdict: GcdVerdict::Lattice,
            cached: true,
            nanos: 1,
        });
        probe.record(TraceEvent::Directions {
            vectors: Vec::new(),
            distance: DistanceVector::default(),
            tests: 3,
            exact: true,
            nanos: 40,
        });
        assert_eq!(reg.stage_verdicts(TestKind::Svpc), [1, 0, 0, 0]);
        assert_eq!(reg.gcd_verdicts(), [0, 2, 0]);
        assert_eq!(reg.gcd_cache_hits(), 1);
        assert_eq!(reg.refinement_cascade_tests(), 3);
        // Stage timings count every stage run but only GCD solves.
        let timings = reg.stage_timings();
        assert_eq!(timings.calls, [1, 0, 0, 0]);
        assert_eq!(timings.nanos, [10, 0, 0, 0]);
        assert_eq!((timings.gcd_calls, timings.gcd_nanos), (1, 20));
        let shown = timings.to_string();
        assert!(
            shown.starts_with("gcd: 1 calls 0.0ms | SVPC: 1 calls"),
            "{shown}"
        );
        assert_eq!(probe.trace(), None);
    }

    #[test]
    fn scoped_probe_tees_into_the_local_registry() {
        let global = MetricsRegistry::new();
        let local = MetricsRegistry::new();
        let mut probe = MetricsProbe::scoped(&global, Some(&local), Some(TraceId(9)));
        probe.record(TraceEvent::Stage {
            test: TestKind::Acyclic,
            verdict: StageVerdict::Dependent,
            nanos: 5,
        });
        probe.record(TraceEvent::Gcd {
            verdict: GcdVerdict::Independent,
            cached: false,
            nanos: 7,
        });
        probe.record(TraceEvent::Directions {
            vectors: Vec::new(),
            distance: DistanceVector::default(),
            tests: 2,
            exact: true,
            nanos: 11,
        });
        // Both registries saw exactly the same recordings.
        for reg in [&global, &local] {
            assert_eq!(reg.stage_verdicts(TestKind::Acyclic), [0, 1, 0, 0]);
            assert_eq!(reg.gcd_verdicts(), [1, 0, 0]);
            assert_eq!(reg.refinement_cascade_tests(), 2);
        }
        assert_eq!(probe.trace(), Some(TraceId(9)));
    }
}
