//! The correctness oracle: after the timed window, every distinct reply
//! (one per source and catalog state) is compared with a cold, in-process
//! `ContextualMatcher::run` over the same source and target content,
//! rendered through the server's own `encode_result`.
//!
//! `run` extracts the target column batch and calls `run_prepared`; the
//! oracle does the same but extracts each catalog state's batch once and
//! shares it across its calls, so the target is profiled once per state
//! instead of once per reply. Nothing else is shared: no index, no
//! selection or profile caches, no source columns.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cxm_core::{ContextualMatcher, PreparedTargets};
use cxm_matching::ColumnData;
use cxm_server::{encode_result, TenantPolicy};

use crate::workload::{context, result_digest, Inputs, ReplyEntry, ReplyKey};

/// The verdict over every distinct reply.
pub struct Verdict {
    /// Distinct replies checked.
    pub checked: usize,
    /// Replies (not keys) whose key disagreed with the oracle.
    pub wrong_replies: usize,
    pub first_mismatch: Option<ReplyKey>,
}

/// Check every distinct reply on `threads` threads.
pub fn check(inputs: &Inputs, replies: &BTreeMap<ReplyKey, ReplyEntry>, threads: usize) -> Verdict {
    let keys: Vec<(&ReplyKey, &ReplyEntry)> = replies.iter().collect();
    let batches = [0, 1].map(|state| ColumnData::all_from_database(inputs.target(state)));
    let next = AtomicUsize::new(0);
    let wrong = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let matcher = ContextualMatcher::new(context());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(key, entry)) = keys.get(i) else { break };
                    let (source, state) = *key;
                    let targets = PreparedTargets {
                        database: inputs.target(state),
                        columns: &batches[state],
                        shared_selections: None,
                        index: None,
                    };
                    let expected = matcher
                        .run_prepared(&inputs.source(source), None, targets)
                        .ok()
                        .and_then(|r| result_digest(&encode_result(&r, &TenantPolicy::default())));
                    if expected != Some(entry.digest) {
                        wrong.lock().expect("no oracle thread panics").push((*key, entry.replies));
                    }
                }
            });
        }
    });
    let mut wrong = wrong.into_inner().expect("no oracle thread panics");
    wrong.sort();
    Verdict {
        checked: keys.len(),
        wrong_replies: wrong.iter().map(|(_, n)| n).sum(),
        first_mismatch: wrong.first().map(|(key, _)| *key),
    }
}
