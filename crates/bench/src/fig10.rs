//! The Fig. 10 MILP scaling sweep: three axes — devices (d), model
//! variants (m) and query types (q) — plus the operating point the
//! controller runs at. `fig10_milp_scaling` prints it as tables and
//! `bench_solver_json` records it as `BENCH_solver.json`; both iterate the
//! instances defined here.

use proteus_core::allocation::milp::{Formulation, MilpConfig};
use proteus_core::schedulers::AllocContext;
use proteus_core::FamilyMap;
use proteus_profiler::{Cluster, ModelFamily, ModelZoo, ProfileStore, SloPolicy, VariantSpec};

/// One solver instance: a cluster, a zoo and the families with demand.
#[derive(Debug)]
pub struct Instance {
    /// The swept dimension's value at this point.
    pub dim: u64,
    /// Worker devices.
    pub cluster: Cluster,
    /// Candidate variants.
    pub zoo: ModelZoo,
    /// Families with demand: the first `families` of [`ModelFamily::ALL`].
    pub families: usize,
}

impl Instance {
    /// Profiles the instance's zoo under the default SLO policy.
    pub fn store(&self) -> ProfileStore {
        ProfileStore::build(&self.zoo, SloPolicy::default())
    }

    /// The allocation context over `store` (every device up).
    pub fn context<'a>(&'a self, store: &'a ProfileStore) -> AllocContext<'a> {
        AllocContext {
            cluster: &self.cluster,
            zoo: &self.zoo,
            store,
            down: &[],
        }
    }

    /// Demand of 30 + 5i QPS for the i-th active family, 0 for the rest.
    pub fn demand(&self) -> FamilyMap<f64> {
        FamilyMap::from_fn(|f| {
            if f.index() < self.families {
                30.0 + 5.0 * f.index() as f64
            } else {
                0.0
            }
        })
    }
}

/// One swept dimension and its instances, in sweep order.
#[derive(Debug)]
pub struct Axis {
    /// Column header in the figure table.
    pub name: &'static str,
    /// Stem of the `BENCH_solver.json` labels (`{key}_pd_{dim}`).
    pub key: &'static str,
    /// What stays fixed along the axis, as the figure prints it.
    pub fixed: &'static str,
    /// The sweep points.
    pub instances: Vec<Instance>,
}

/// A zoo with only the first `per_family` variants of each of the first
/// `families` families.
pub fn sub_zoo(families: usize, per_family: usize) -> ModelZoo {
    let full = ModelZoo::paper_table3();
    let mut zoo = ModelZoo::new();
    for &family in ModelFamily::ALL.iter().take(families) {
        for v in full.variants_of(family).take(per_family) {
            zoo.register(VariantSpec::new(
                v.id(),
                v.name(),
                v.accuracy(),
                v.reference_latency_ms(),
                v.memory_mib(),
                v.memory_per_item_mib(),
            ));
        }
    }
    zoo
}

/// The three axes of Fig. 10, reduced from the paper's ranges.
pub fn axes() -> [Axis; 3] {
    // Variants and query types sweep on a fixed 12-device cluster.
    let cluster12 = || Cluster::with_counts(6, 3, 3);
    [
        Axis {
            name: "devices",
            key: "devices",
            fixed: "m = 16 variants, q = 4",
            instances: [6u32, 12, 20, 32, 48]
                .into_iter()
                .map(|d| Instance {
                    dim: u64::from(d),
                    cluster: Cluster::with_counts(d / 2, d / 4, d - d / 2 - d / 4),
                    zoo: sub_zoo(4, 4),
                    families: 4,
                })
                .collect(),
        },
        Axis {
            name: "variants",
            key: "variants",
            fixed: "d = 12, q = 6",
            instances: [1usize, 2, 3, 4, 5]
                .into_iter()
                .map(|per| {
                    let zoo = sub_zoo(6, per);
                    Instance {
                        dim: zoo.len() as u64,
                        cluster: cluster12(),
                        zoo,
                        families: 6,
                    }
                })
                .collect(),
        },
        Axis {
            name: "query types",
            key: "qtypes",
            fixed: "d = 12, m = 4 per family",
            instances: [1usize, 3, 5, 7, 9]
                .into_iter()
                .map(|q| Instance {
                    dim: q as u64,
                    cluster: cluster12(),
                    zoo: sub_zoo(q, 4),
                    families: q,
                })
                .collect(),
        },
    ]
}

/// The paper testbed with the full Table 3 zoo and all nine families: the
/// scale the controller plans at.
pub fn operating_point() -> Instance {
    let cluster = Cluster::paper_testbed();
    Instance {
        dim: cluster.len() as u64,
        cluster,
        zoo: ModelZoo::paper_table3(),
        families: ModelFamily::COUNT,
    }
}

/// The default solver configuration with the given formulation.
pub fn config(formulation: Formulation) -> MilpConfig {
    MilpConfig {
        formulation,
        ..MilpConfig::default()
    }
}
