//! The operator registry: Table 4's inventory plus factories.

use crate::framework::Operator;
use crate::ops;

/// Static facts about one evaluated operator (the paper's Table 4).
#[derive(Debug, Clone)]
pub struct OperatorInfo {
    /// Registry name.
    pub name: &'static str,
    /// Managed system.
    pub system: &'static str,
    /// Developer (official team or vendor).
    pub developer: &'static str,
    /// GitHub stars at evaluation time (paper's snapshot).
    pub stars: u32,
    /// Lines of operator code (paper's snapshot, thousands).
    pub loc_thousands: f64,
    /// Number of pre-existing manual e2e tests.
    pub e2e_tests: u32,
    /// Parallel workers the paper used for this operator's campaign
    /// (Table 8).
    pub workers: u32,
}

/// All eleven evaluated operators, in Table 4 order.
pub fn all_operators() -> &'static [OperatorInfo] {
    const OPS: &[OperatorInfo] = &[
        OperatorInfo {
            name: "CassOp",
            system: "cassandra",
            developer: "K8ssandra",
            stars: 148,
            loc_thousands: 23.1,
            e2e_tests: 48,
            workers: 16,
        },
        OperatorInfo {
            name: "CockroachOp",
            system: "cockroachdb",
            developer: "Official",
            stars: 238,
            loc_thousands: 17.4,
            e2e_tests: 21,
            workers: 16,
        },
        OperatorInfo {
            name: "KnativeOp",
            system: "knative",
            developer: "Official",
            stars: 157,
            loc_thousands: 16.3,
            e2e_tests: 7,
            workers: 16,
        },
        OperatorInfo {
            name: "OCK/RedisOp",
            system: "redis",
            developer: "OCK",
            stars: 531,
            loc_thousands: 2.5,
            e2e_tests: 0,
            workers: 16,
        },
        OperatorInfo {
            name: "OFC/MongoOp",
            system: "mongodb",
            developer: "Official",
            stars: 977,
            loc_thousands: 17.1,
            e2e_tests: 62,
            workers: 16,
        },
        OperatorInfo {
            name: "PCN/MongoOp",
            system: "mongodb",
            developer: "Percona",
            stars: 268,
            loc_thousands: 15.0,
            e2e_tests: 31,
            workers: 12,
        },
        OperatorInfo {
            name: "RabbitMQOp",
            system: "rabbitmq",
            developer: "Official",
            stars: 669,
            loc_thousands: 14.7,
            e2e_tests: 8,
            workers: 16,
        },
        OperatorInfo {
            name: "SAH/RedisOp",
            system: "redis",
            developer: "Spotahome",
            stars: 1303,
            loc_thousands: 10.5,
            e2e_tests: 1,
            workers: 16,
        },
        OperatorInfo {
            name: "TiDBOp",
            system: "tidb",
            developer: "Official",
            stars: 1130,
            loc_thousands: 132.8,
            e2e_tests: 131,
            workers: 12,
        },
        OperatorInfo {
            name: "XtraDBOp",
            system: "xtradb",
            developer: "Percona",
            stars: 448,
            loc_thousands: 15.5,
            e2e_tests: 37,
            workers: 8,
        },
        OperatorInfo {
            name: "ZooKeeperOp",
            system: "zookeeper",
            developer: "Pravega",
            stars: 332,
            loc_thousands: 5.5,
            e2e_tests: 8,
            workers: 16,
        },
    ];
    OPS
}

/// The names of all evaluated operators.
pub fn operator_names() -> Vec<&'static str> {
    all_operators().iter().map(|o| o.name).collect()
}

/// Table-4 facts for one operator.
pub fn operator_info(name: &str) -> Option<&'static OperatorInfo> {
    all_operators().iter().find(|o| o.name == name)
}

/// Instantiates an operator by registry name, or `None` for a name outside
/// the closed set of evaluated operators. Configuration boundaries
/// (campaign and fuzz entry points) use this to reject typos with an error
/// listing the valid names instead of aborting mid-run.
pub fn try_operator_by_name(name: &str) -> Option<Box<dyn Operator>> {
    Some(match name {
        "CassOp" => Box::new(ops::cassandra::CassOp) as Box<dyn Operator>,
        "CockroachOp" => Box::new(ops::cockroach::CockroachOp),
        "KnativeOp" => Box::new(ops::knative::KnativeOp),
        "OCK/RedisOp" => Box::new(ops::redis_ock::RedisOckOp),
        "OFC/MongoOp" => Box::new(ops::mongodb_ofc::MongoOfcOp),
        "PCN/MongoOp" => Box::new(ops::mongodb_pcn::MongoPcnOp),
        "RabbitMQOp" => Box::new(ops::rabbitmq::RabbitMqOp),
        "SAH/RedisOp" => Box::new(ops::redis_sah::RedisSahOp),
        "TiDBOp" => Box::new(ops::tidb::TiDbOp),
        "XtraDBOp" => Box::new(ops::xtradb::XtraDbOp),
        "ZooKeeperOp" => Box::new(ops::zookeeper::ZooKeeperOp::default()),
        _ => return None,
    })
}

/// Instantiates an operator by registry name.
///
/// # Panics
///
/// Panics on an unknown name; the set of evaluated operators is closed.
/// Use [`try_operator_by_name`] where an unknown name is user input rather
/// than a programming error.
pub fn operator_by_name(name: &str) -> Box<dyn Operator> {
    try_operator_by_name(name)
        .unwrap_or_else(|| panic!("unknown operator {name:?}; valid: {:?}", operator_names()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs;
    use crdspec::validate;

    #[test]
    fn unknown_names_are_fallible_not_fatal() {
        assert!(try_operator_by_name("ZooKeeperOp").is_some());
        assert!(try_operator_by_name("NoSuchOp").is_none());
        assert!(try_operator_by_name("").is_none());
        assert!(try_operator_by_name("zookeeperop").is_none());
        for name in operator_names() {
            assert_eq!(try_operator_by_name(name).expect("registered").name(), name);
        }
    }

    #[test]
    fn registry_has_eleven_operators() {
        assert_eq!(all_operators().len(), 11);
        for info in all_operators() {
            let op = operator_by_name(info.name);
            assert_eq!(op.name(), info.name);
            assert_eq!(op.system(), info.system);
        }
    }

    #[test]
    fn initial_crs_validate_against_schemas() {
        for info in all_operators() {
            let op = operator_by_name(info.name);
            let errors = validate(&op.schema(), &op.initial_cr());
            assert!(
                errors.is_empty(),
                "{}: initial CR invalid: {errors:?}",
                info.name
            );
        }
    }

    #[test]
    fn irs_are_structurally_valid() {
        for info in all_operators() {
            let op = operator_by_name(info.name);
            op.ir().validate().unwrap_or_else(|e| {
                panic!("{}: invalid IR: {e}", info.name);
            });
        }
    }

    #[test]
    fn bug_trigger_properties_exist_in_schemas() {
        for bug in bugs::all_bugs() {
            let op = operator_by_name(bug.operator);
            let schema = op.schema();
            let path: crdspec::Path = bug
                .trigger_property
                .parse()
                .unwrap_or_else(|e| panic!("{}: bad trigger path: {e}", bug.id));
            assert!(
                schema.at(&path).is_some(),
                "{}: trigger property {} not in {} schema",
                bug.id,
                bug.trigger_property,
                bug.operator
            );
        }
    }

    #[test]
    fn schemas_are_rich_operation_interfaces() {
        let mut total = 0;
        for info in all_operators() {
            let op = operator_by_name(info.name);
            let count = op.schema().property_count();
            assert!(count >= 25, "{}: only {count} properties", info.name);
            total += count;
        }
        assert!(total >= 500, "total properties across operators: {total}");
    }

    #[test]
    fn every_operator_deploys_cleanly() {
        use crate::bugs::BugToggles;
        use crate::framework::Instance;
        for info in all_operators() {
            let instance = Instance::deploy(
                operator_by_name(info.name),
                BugToggles::all_injected(),
                simkube::PlatformBugs::none(),
            )
            .unwrap_or_else(|e| panic!("{}: deploy failed: {e}", info.name));
            assert!(
                instance.last_health.is_healthy(),
                "{}: unhealthy after deploy: {:?}",
                info.name,
                instance.last_health
            );
        }
    }
}
