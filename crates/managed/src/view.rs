//! The interface between system models and the simulated cluster.

use std::collections::BTreeMap;

use simkube::objects::{Kind, ObjectData, PodPhase};
use simkube::store::ObjKey;
use simkube::SimCluster;

/// System-level health, the signal Acto's error oracle reads from runtime
/// status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// The system serves requests normally.
    Healthy,
    /// The system serves requests with reduced guarantees.
    Degraded(String),
    /// The system is unavailable.
    Down(String),
}

impl Health {
    /// Returns `true` for [`Health::Healthy`].
    pub fn is_healthy(&self) -> bool {
        matches!(self, Health::Healthy)
    }

    /// The human-readable reason for non-healthy states.
    pub fn reason(&self) -> Option<&str> {
        match self {
            Health::Healthy => None,
            Health::Degraded(r) | Health::Down(r) => Some(r),
        }
    }
}

/// A model's view of one pod.
#[derive(Debug, Clone, PartialEq)]
pub struct PodView {
    /// Pod name.
    pub name: String,
    /// Lifecycle phase.
    pub phase: PodPhase,
    /// Readiness.
    pub ready: bool,
    /// Failure reason, when not running.
    pub reason: String,
    /// Pod labels.
    pub labels: BTreeMap<String, String>,
    /// Pod annotations.
    pub annotations: BTreeMap<String, String>,
    /// First container's image.
    pub image: String,
    /// First container's configuration hash.
    pub config_hash: String,
}

/// A managed system's window into the cluster, scoped to one application
/// instance.
///
/// Conventions (followed by every operator in this repository):
/// - pods of the instance carry the label `app={instance}`;
/// - component pods additionally carry `component=<name>`;
/// - the instance's configuration lives in the `{instance}-config` config
///   map.
pub struct SystemView<'a> {
    cluster: &'a mut SimCluster,
    /// Namespace of the instance.
    pub namespace: String,
    /// Instance (application) name.
    pub instance: String,
}

impl<'a> SystemView<'a> {
    /// Creates a view of `instance` in `namespace`.
    pub fn new(cluster: &'a mut SimCluster, namespace: &str, instance: &str) -> SystemView<'a> {
        SystemView {
            cluster,
            namespace: namespace.to_string(),
            instance: instance.to_string(),
        }
    }

    /// All pods of the instance (label `app={instance}`), sorted by name.
    pub fn pods(&self) -> Vec<PodView> {
        self.pods_with("app", &self.instance)
    }

    /// Pods of one component (`component={component}`), sorted by name.
    pub fn component_pods(&self, component: &str) -> Vec<PodView> {
        self.pods()
            .into_iter()
            .filter(|p| p.labels.get("component").map(String::as_str) == Some(component))
            .collect()
    }

    /// Pods matching an arbitrary label.
    pub fn pods_with(&self, key: &str, value: &str) -> Vec<PodView> {
        self.cluster
            .api()
            .store()
            .list(&Kind::Pod, &self.namespace)
            .iter()
            .filter(|o| o.meta.labels.get(key).map(String::as_str) == Some(value))
            .filter_map(|o| match &o.data {
                ObjectData::Pod(p) => Some(PodView {
                    name: o.meta.name.clone(),
                    phase: p.phase,
                    ready: p.ready,
                    reason: p.reason.clone(),
                    labels: o.meta.labels.clone(),
                    annotations: o.meta.annotations.clone(),
                    image: p
                        .containers
                        .first()
                        .map(|c| c.image.clone())
                        .unwrap_or_default(),
                    config_hash: p
                        .containers
                        .first()
                        .map(|c| c.config_hash.clone())
                        .unwrap_or_default(),
                }),
                _ => None,
            })
            .collect()
    }

    /// Reads the instance's config map (`{instance}-config`).
    pub fn config(&self) -> BTreeMap<String, String> {
        self.config_map().cloned().unwrap_or_default()
    }

    /// Reads one config entry.
    pub fn config_value(&self, key: &str) -> Option<String> {
        self.config_map()?.get(key).cloned()
    }

    /// Borrows the entries of the instance's config map, if it exists.
    fn config_map(&self) -> Option<&BTreeMap<String, String>> {
        let key = ObjKey::new(
            Kind::ConfigMap,
            &self.namespace,
            &format!("{}-config", self.instance),
        );
        match &self.cluster.api().get(&key)?.data {
            ObjectData::ConfigMap(c) => Some(&c.data),
            _ => None,
        }
    }

    /// Marks a pod as crash-looping for a system-semantic reason. The
    /// condition is scoped to this view's namespace.
    pub fn crash_pod(&mut self, pod: &str, reason: &str) {
        let namespace = self.namespace.clone();
        self.cluster.set_crashing(&namespace, pod, reason);
    }

    /// Clears a crash-loop condition.
    pub fn clear_crash(&mut self, pod: &str) {
        let namespace = self.namespace.clone();
        self.cluster.clear_crash(&namespace, pod);
    }

    /// Runs a closure over the underlying object store (read-only). Models
    /// use this for lookups beyond the pod/config conventions.
    pub fn with_store<R>(&self, f: impl FnOnce(&simkube::ObjectStore) -> R) -> R {
        f(self.cluster.api().store())
    }

    /// Generation of a secret object, if present (used by TLS-rotation
    /// models).
    pub fn secret_generation(&self, key: &ObjKey) -> Option<u64> {
        self.with_store(|store| {
            store.get(key).and_then(|obj| match &obj.data {
                ObjectData::Secret(_) => Some(obj.meta.generation),
                _ => None,
            })
        })
    }

    /// Number of ready pods among `pods`.
    pub fn ready_count(pods: &[PodView]) -> usize {
        pods.iter()
            .filter(|p| p.phase == PodPhase::Running && p.ready)
            .count()
    }

    /// Quorum check: more than half of `total` members are ready.
    pub fn has_quorum(ready: usize, total: usize) -> bool {
        total > 0 && ready * 2 > total
    }
}

/// A managed-system behavioural model.
pub trait SystemModel: Send {
    /// The system's name (matches the operator registry).
    fn name(&self) -> &'static str;

    /// Advances the model one tick: reads the cluster, injects semantic
    /// failures, and reports system health.
    fn tick(&mut self, view: &mut SystemView<'_>) -> Health;
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkube::meta::ObjectMeta;
    use simkube::objects::{ConfigMap, Pod};
    use simkube::{ClusterConfig, PlatformBugs};

    fn cluster() -> SimCluster {
        SimCluster::new(ClusterConfig {
            bugs: PlatformBugs::none(),
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn pods_filtered_by_instance_label() {
        let mut c = cluster();
        for (name, app) in [("zk-0", "zk"), ("zk-1", "zk"), ("other-0", "other")] {
            c.api_mut()
                .create_object(
                    ObjectMeta::named("ns", name).with_label("app", app),
                    ObjectData::Pod(Pod::default()),
                    0,
                )
                .unwrap();
        }
        let view = SystemView::new(&mut c, "ns", "zk");
        assert_eq!(view.pods().len(), 2);
        assert_eq!(view.pods_with("app", "other").len(), 1);
    }

    #[test]
    fn config_map_lookup() {
        let mut c = cluster();
        let mut data = BTreeMap::new();
        data.insert("a".to_string(), "1".to_string());
        c.api_mut()
            .create_object(
                ObjectMeta::named("ns", "zk-config"),
                ObjectData::ConfigMap(ConfigMap { data }),
                0,
            )
            .unwrap();
        // A present key, a missing key, and an instance with no config map:
        // the borrowed read agrees with the cloned map.
        for (instance, key, expected) in [
            ("zk", "a", Some("1")),
            ("zk", "b", None),
            ("absent", "a", None),
        ] {
            let view = SystemView::new(&mut c, "ns", instance);
            assert_eq!(view.config_value(key).as_deref(), expected);
            assert_eq!(view.config_value(key), view.config().get(key).cloned());
        }
    }

    #[test]
    fn quorum_math() {
        assert!(SystemView::has_quorum(2, 3));
        assert!(!SystemView::has_quorum(1, 3));
        assert!(!SystemView::has_quorum(2, 4));
        assert!(SystemView::has_quorum(3, 4));
        assert!(!SystemView::has_quorum(0, 0));
    }

    #[test]
    fn health_accessors() {
        assert!(Health::Healthy.is_healthy());
        assert_eq!(Health::Healthy.reason(), None);
        assert_eq!(
            Health::Down("quorum lost".to_string()).reason(),
            Some("quorum lost")
        );
        assert!(!Health::Degraded("x".to_string()).is_healthy());
    }
}
