//! Multi-tenant `omp-service` cases: admission conservation, pinned suite
//! counts under coexistence, and exact per-tenant accounting.

use omp::OmpRuntime;

/// Det-sweepable shape of the multi-tenant accounting hazard: four tenants
/// complete four jobs each as concurrent tasks on one runtime, every
/// completion charging its own ledger slot
/// ([`omp_service::colocated_accounting_probe`]). Exact on every seed
/// unless `Fault::TenantBleed` is armed (`--features planted`): then the
/// ledger parks the tenant id in a shared scratch cell across a scheduling
/// point, and seeded schedules that interleave two charges misdirect one.
/// It is **not** part of [`crate::cases`] (the service crate is an
/// optional tenant of the conformance matrix, not an OpenMP construct).
pub fn tenant_accounting(rt: &dyn OmpRuntime) -> bool {
    omp_service::colocated_accounting_probe(rt, 4, 4)
}

#[cfg(test)]
mod tests {
    use omp::OmpConfig;
    use workloads::RuntimeKind;

    use super::*;
    use crate::det::{seed_stream, seeds_from_env, sweep, DetTarget};
    use crate::fast_stall;
    use crate::laws::{expected_suite_passes, glto_matrix};

    /// A substrate for `tenants` tenants over four two-core domains, four
    /// jobs at a time.
    fn substrate(tenants: usize) -> omp_service::Substrate {
        let mut cfg = omp_service::ServiceConfig::new(tenants);
        cfg.topology = glt::Topology::new(4, 2, 1);
        cfg.max_concurrent = 4;
        omp_service::Substrate::start(cfg)
    }

    /// 2–8 concurrent tenants on one substrate: every job verifies, the
    /// admission conservation laws hold once drained, and each tenant's
    /// ledger slot counts exactly its own jobs.
    #[test]
    fn service_admission_conserves_across_tenant_counts() {
        fast_stall();
        for tenants in [2usize, 3, 5, 8] {
            let s = substrate(tenants);
            let mix = omp_service::Workload::mix();
            let kinds = glto_matrix();
            let tickets: Vec<_> = (0..tenants * 2)
                .map(|i| {
                    s.submit(omp_service::JobSpec {
                        tenant: i % tenants,
                        workload: mix[i % mix.len()].clone(),
                        threads: 2,
                        runtime: kinds[i % kinds.len()],
                    })
                    .expect("unbounded queue")
                })
                .collect();
            for t in tickets {
                let out = t.wait();
                assert!(out.ok, "tenant {} wrong digest with {tenants} tenants", out.tenant);
            }
            let report = s.shutdown();
            assert!(report.is_clean(), "{tenants} tenants: {:?}", report.violations);
            let leaks = report.per_tenant_violations();
            assert!(leaks.is_empty(), "{tenants} tenants: {leaks:?}");
            let jobs = (tenants * 2) as u64;
            assert_eq!((report.service.jobs_queued, report.service.jobs_admitted), (jobs, jobs));
            assert_eq!(report.aggregate.tenant_steals_leaked, 0);
            for (t, totals) in report.per_tenant.iter().enumerate() {
                assert_eq!((totals.jobs_ok, totals.jobs_bad), (2, 0), "tenant {t}");
            }
        }
    }

    /// Coexistence must not change semantics: tenants that each run the
    /// full validation suite as a service job still score their runtime's
    /// pinned pass count (Table I) while sharing one substrate.
    #[test]
    fn concurrent_tenant_suites_keep_pinned_pass_counts() {
        fast_stall();
        use RuntimeKind::{Adaptive, GltoAbt, GltoMth, GltoQth, Gnu, Intel};
        let kinds = [Gnu, Intel, GltoAbt, GltoQth, GltoMth, Adaptive];
        let s = substrate(kinds.len());
        let tickets: Vec<_> = kinds
            .iter()
            .enumerate()
            .map(|(t, &kind)| {
                let suite = omp_service::Workload::Custom(std::sync::Arc::new(|rt| {
                    validation::run_suite(rt).passed as u64
                }));
                s.submit(omp_service::JobSpec {
                    tenant: t,
                    workload: suite,
                    threads: 2,
                    runtime: kind,
                })
                .expect("unbounded queue")
            })
            .collect();
        for (t, ticket) in tickets.into_iter().enumerate() {
            let out = ticket.wait();
            assert_eq!(
                out.digest,
                expected_suite_passes(kinds[t]) as u64,
                "{} under multi-tenancy",
                kinds[t].name()
            );
        }
        let report = s.shutdown();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    /// The unarmed accounting probe is exact on every swept schedule (the
    /// armed bleed must flip the same probe red).
    #[test]
    fn tenant_accounting_sweep_is_clean() {
        fast_stall();
        sweep(
            DetTarget::Glto,
            "tenant-accounting",
            tenant_accounting,
            &OmpConfig::with_threads(4),
            seed_stream(97, seeds_from_env(64)),
        )
        .assert_all_passed();
    }
}
