//! The one metrics sink: a [`Probe`] that feeds the registry, and the
//! recorders the batch engine calls directly.

use crate::registry::{MemoTableKind, MetricsRegistry, WaveReport};
use crate::TraceContext;
use dda_core::pipeline::{GcdVerdict, Probe, StageVerdict, TraceEvent, TraceId};
use dda_core::TestKind;

/// The sink every metric recording goes through: a shared
/// [`MetricsRegistry`], plus an optional request scope. It is the
/// pipeline probe for stage/GCD/refinement telemetry (read back with
/// [`MetricsRegistry::stage_timings`]) and the engine's sink for wave,
/// leader-election, incremental and graph recordings.
///
/// Recording is allocation-free: the interesting events carry only
/// `Copy` payloads and each lands as a few relaxed atomic adds. Events
/// with owned payloads (`Reduced`, `Witness`, `Directions`, ...) are
/// consumed by value exactly like every other probe, so the analyzer's
/// behaviour is identical to running with `NullProbe` — the
/// determinism proptests in `tests/obs.rs` pin that down.
///
/// A sink built with [`scoped`](MetricsProbe::scoped) over a request's
/// [`TraceContext`] additionally *tees* every recording into the
/// context's local registry and carries its [`TraceId`] — one more
/// relaxed atomic add per event, still lock- and allocation-free.
/// `Copy`, so the engine's wave closures capture it by value.
#[derive(Debug, Clone, Copy)]
pub struct MetricsProbe<'a> {
    registry: &'a MetricsRegistry,
    local: Option<&'a MetricsRegistry>,
    trace: Option<TraceId>,
}

impl<'a> MetricsProbe<'a> {
    /// Creates a sink recording into `registry`.
    pub fn new(registry: &'a MetricsRegistry) -> Self {
        Self::scoped(registry, None)
    }

    /// Creates a sink recording into `registry` and, when a request
    /// scope is given, teeing the same recordings into its local
    /// registry under its trace id.
    pub fn scoped(registry: &'a MetricsRegistry, scope: Option<&'a TraceContext>) -> Self {
        MetricsProbe {
            registry,
            local: scope.map(TraceContext::local),
            trace: scope.map(TraceContext::id),
        }
    }

    /// Applies one recording to the global registry, then to the
    /// request-local one.
    fn tee(self, record: impl Fn(&MetricsRegistry)) {
        record(self.registry);
        if let Some(local) = self.local {
            record(local);
        }
    }

    /// See [`MetricsRegistry::record_stage`].
    pub fn record_stage(self, test: TestKind, verdict: StageVerdict, nanos: u64) {
        self.tee(|r| r.record_stage(test, verdict, nanos));
    }

    /// See [`MetricsRegistry::record_gcd`].
    pub fn record_gcd(self, verdict: GcdVerdict, cached: bool, nanos: u64) {
        self.tee(|r| r.record_gcd(verdict, cached, nanos));
    }

    /// See [`MetricsRegistry::record_refinement`].
    pub fn record_refinement(self, cascade_tests: u64, nanos: u64) {
        self.tee(|r| r.record_refinement(cascade_tests, nanos));
    }

    /// See [`MetricsRegistry::record_wave`].
    pub fn record_wave(self, wave: &WaveReport) {
        self.tee(|r| r.record_wave(wave));
    }

    /// See [`MetricsRegistry::record_leader_elections`].
    pub fn record_leader_elections(self, table: MemoTableKind, n: u64) {
        self.tee(|r| r.record_leader_elections(table, n));
    }

    /// See [`MetricsRegistry::record_incremental`].
    pub fn record_incremental(self, spliced: u64, resolved: u64) {
        self.tee(|r| r.record_incremental(spliced, resolved));
    }

    /// See [`MetricsRegistry::record_graph`].
    pub fn record_graph(self, edges_by_kind: [u64; 4], parallel: u64, sequential: u64, nanos: u64) {
        self.tee(|r| r.record_graph(edges_by_kind, parallel, sequential, nanos));
    }
}

impl Probe for MetricsProbe<'_> {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Stage {
                test,
                verdict,
                nanos,
            } => self.record_stage(test, verdict, nanos),
            TraceEvent::Gcd {
                verdict,
                cached,
                nanos,
            } => self.record_gcd(verdict, cached, nanos),
            TraceEvent::Directions { tests, nanos, .. } => self.record_refinement(tests, nanos),
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
    use dda_core::result::DistanceVector;

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
        let ctx = TraceContext::new(TraceId(9));
        let mut probe = MetricsProbe::scoped(&global, Some(&ctx));
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
        probe.record_leader_elections(MemoTableKind::Gcd, 4);
        // Both registries saw exactly the same recordings.
        for reg in [&global, ctx.local()] {
            assert_eq!(reg.stage_verdicts(TestKind::Acyclic), [0, 1, 0, 0]);
            assert_eq!(reg.gcd_verdicts(), [1, 0, 0]);
            assert_eq!(reg.refinement_cascade_tests(), 2);
            assert_eq!(reg.leader_elections(MemoTableKind::Gcd), 4);
        }
        assert_eq!(probe.trace(), Some(TraceId(9)));
    }
}
