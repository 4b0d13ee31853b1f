//! The task registry: the server-side catalog mapping wire task names to
//! full synthesis fixtures.
//!
//! The wire protocol names tasks instead of shipping databases and guidance
//! models over the socket — those are process-local objects (a `Database`
//! is shared by `Arc`, a `GuidanceModel` is a trait object). A deployment
//! registers its catalog once at server construction; a submit frame then
//! picks a task by name and overrides only the serving knobs (priority,
//! deadline, candidate budget).

use crate::wire::SubmitWire;
use duoquest_core::{DuoquestConfig, TableSketchQuery};
use duoquest_db::Database;
use duoquest_nlq::{GuidanceModel, Nlq};
use duoquest_service::SynthesisRequest;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything needed to build a [`SynthesisRequest`] for one named task.
#[derive(Clone)]
pub struct TaskSpec {
    /// The database the task runs against.
    pub db: Arc<Database>,
    /// The natural-language half of the dual specification.
    pub nlq: Nlq,
    /// The guidance model scoring enumeration choices.
    pub model: Arc<dyn GuidanceModel>,
    /// The table-sketch half of the dual specification, if any.
    pub tsq: Option<TableSketchQuery>,
    /// The engine configuration (a submit frame may override
    /// `max_candidates`).
    pub config: DuoquestConfig,
}

/// The name → [`TaskSpec`] catalog a [`NetServer`](crate::NetServer) serves.
#[derive(Default, Clone)]
pub struct TaskRegistry {
    tasks: HashMap<String, TaskSpec>,
}

impl TaskRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TaskRegistry::default()
    }

    /// Register (or replace) a task under `name`.
    pub fn register(&mut self, name: impl Into<String>, spec: TaskSpec) -> &mut Self {
        self.tasks.insert(name.into(), spec);
        self
    }

    /// Look a task up by name.
    pub fn get(&self, name: &str) -> Option<&TaskSpec> {
        self.tasks.get(name)
    }

    /// Registered task names, unordered.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tasks.keys().map(String::as_str)
    }

    /// Registered task specs, unordered (the `/metrics` scrape walks these
    /// to aggregate probe totals over the **distinct** databases —
    /// tasks sharing one `Arc<Database>` are deduplicated by pointer).
    pub fn specs(&self) -> impl Iterator<Item = &TaskSpec> {
        self.tasks.values()
    }

    /// Number of registered tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Build the request a submit frame describes: the named spec with the
    /// frame's serving overrides applied. `None` when the task name is
    /// unknown.
    pub fn build_request(&self, frame: &SubmitWire) -> Option<SynthesisRequest> {
        let spec = self.get(&frame.task)?;
        let mut config = spec.config.clone();
        if let Some(max) = frame.max_candidates {
            config.max_candidates = max;
        }
        let mut request =
            SynthesisRequest::new(Arc::clone(&spec.db), spec.nlq.clone(), Arc::clone(&spec.model))
                .with_config(config);
        if let Some(tsq) = &spec.tsq {
            request = request.with_tsq(tsq.clone());
        }
        if let Some(priority) = frame.priority {
            request = request.with_priority(priority);
        }
        if let Some(deadline_ms) = frame.deadline_ms {
            request = request.with_deadline(std::time::Duration::from_millis(deadline_ms));
        }
        Some(request)
    }
}

impl std::fmt::Debug for TaskRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.names().collect();
        names.sort_unstable();
        f.debug_struct("TaskRegistry").field("tasks", &names).finish()
    }
}
