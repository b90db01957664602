//! A timing decorator around the contention manager under test.
//!
//! [`TimedCm`] implements the public [`ContentionManager`] trait by
//! forwarding every hook to the wrapped manager inside a `cm.*` span, and
//! counts the verdicts `resolve` returns. The traced run installs it
//! through `CmDispatch::Dyn`; the untraced run installs the manager
//! itself, so built-in managers keep their enum fast path there and the
//! cost of leaving it is part of `trace.overhead`.

use std::sync::Arc;

use wtm_stm::{ConflictKind, ContentionManager, Resolution, TxState};

use crate::trace::{self, Span};

pub struct TimedCm {
    inner: Arc<dyn ContentionManager>,
}

impl TimedCm {
    pub fn new(inner: Arc<dyn ContentionManager>) -> Self {
        TimedCm { inner }
    }
}

impl ContentionManager for TimedCm {
    fn resolve(&self, me: &TxState, enemy: &TxState, kind: ConflictKind) -> Resolution {
        let _s = trace::span(Span::Resolve);
        let r = self.inner.resolve(me, enemy, kind);
        trace::verdict(r);
        r
    }

    fn on_begin(&self, tx: &Arc<TxState>, is_retry: bool) {
        let _s = trace::span(Span::OnBegin);
        self.inner.on_begin(tx, is_retry);
    }

    // Once per object open: forwarded without a span, as no metric needs it.
    fn on_open(&self, tx: &TxState) {
        self.inner.on_open(tx);
    }

    fn on_commit(&self, tx: &TxState) {
        let _s = trace::span(Span::OnCommit);
        self.inner.on_commit(tx);
    }

    fn on_abort(&self, tx: &TxState) {
        let _s = trace::span(Span::OnAbort);
        self.inner.on_abort(tx);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    use super::*;

    /// Answers a scripted verdict sequence and logs every hook it sees.
    struct Scripted {
        verdicts: Vec<Resolution>,
        next: AtomicUsize,
        hooks: Mutex<Vec<(&'static str, u64)>>,
    }

    impl ContentionManager for Scripted {
        fn resolve(&self, me: &TxState, _enemy: &TxState, _kind: ConflictKind) -> Resolution {
            self.hooks.lock().unwrap().push(("resolve", me.attempt_id));
            self.verdicts[self.next.fetch_add(1, Ordering::Relaxed) % self.verdicts.len()]
        }
        fn on_begin(&self, tx: &Arc<TxState>, is_retry: bool) {
            let tag = if is_retry { "begin-retry" } else { "begin" };
            self.hooks.lock().unwrap().push((tag, tx.attempt_id));
        }
        fn on_open(&self, tx: &TxState) {
            self.hooks.lock().unwrap().push(("open", tx.attempt_id));
        }
        fn on_commit(&self, tx: &TxState) {
            self.hooks.lock().unwrap().push(("commit", tx.attempt_id));
        }
        fn on_abort(&self, tx: &TxState) {
            self.hooks.lock().unwrap().push(("abort", tx.attempt_id));
        }
        fn name(&self) -> &str {
            "Scripted"
        }
    }

    fn state(id: u64) -> Arc<TxState> {
        Arc::new(TxState::new(id, id, 0, 0, id, id, 0, 0))
    }

    #[test]
    fn forwards_every_verdict_and_hook_unchanged() {
        let script = vec![
            Resolution::AbortEnemy,
            Resolution::Retry,
            Resolution::AbortSelf,
            Resolution::AbortSelf,
            Resolution::Retry,
            Resolution::AbortEnemy,
        ];
        let inner = Arc::new(Scripted {
            verdicts: script.clone(),
            next: AtomicUsize::new(0),
            hooks: Mutex::new(Vec::new()),
        });
        let timed = TimedCm::new(inner.clone());
        let (me, enemy) = (state(1), state(2));
        let kinds = [
            ConflictKind::WriteWrite,
            ConflictKind::ReadWrite,
            ConflictKind::WriteRead,
        ];
        let got: Vec<Resolution> = (0..script.len())
            .map(|i| timed.resolve(&me, &enemy, kinds[i % 3]))
            .collect();
        assert_eq!(got, script);

        timed.on_begin(&me, false);
        timed.on_begin(&me, true);
        timed.on_open(&me);
        timed.on_commit(&me);
        timed.on_abort(&enemy);
        let hooks = inner.hooks.lock().unwrap().clone();
        assert_eq!(hooks.len(), script.len() + 5);
        assert_eq!(
            &hooks[script.len()..],
            &[
                ("begin", 1),
                ("begin-retry", 1),
                ("open", 1),
                ("commit", 1),
                ("abort", 2)
            ]
        );
        assert_eq!(timed.name(), "Scripted");
    }
}
