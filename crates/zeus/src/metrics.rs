//! Centralised metric names for the Zeus tiers.
//!
//! Every `ctx.metrics().incr/sample` call site and every reporting site
//! references these constants, so a recording name and its reader cannot
//! silently typo apart (the failure mode: a counter recorded as
//! `zeus.proxy_failover` and read as `zeus.proxy_failovers` reports an
//! eternal zero instead of an error).

/// End-to-end commit → client-apply latency, sampled at the proxy when a
/// notify actually changes the on-disk cache (Fig. 13's quantity).
pub const PROPAGATION_S: &str = "zeus.propagation_s";
/// Writes committed by the leader after quorum ack.
pub const COMMITS: &str = "zeus.commits";
/// Leader elections completed.
pub const LEADER_ELECTIONS: &str = "zeus.leader_elections";
/// Leaders that stepped down on seeing a higher epoch.
pub const LEADER_STEPDOWNS: &str = "zeus.leader_stepdowns";
/// Proposals dropped because the receiver was not a leader.
pub const DROPPED_PROPOSALS: &str = "zeus.dropped_proposals";
/// Proposals redirected between ensemble members during sync.
pub const SYNC_REDIRECTS: &str = "zeus.sync_redirects";
/// Uncommitted log suffixes truncated on epoch change.
pub const TRUNCATED_UNCOMMITTED: &str = "zeus.truncated_uncommitted";
/// Writes re-proposed by a new leader after election.
pub const REPROPOSED_ON_ELECTION: &str = "zeus.reproposed_on_election";
/// (follower, write) pairs actually retransmitted by the heartbeat pacer:
/// each unit is one pending write re-sent to one specific follower, and
/// only followers whose cumulative ack misses the write are counted.
pub const APPEND_RETRANSMITS: &str = "zeus.append_retransmits";
/// Observer-applied committed writes.
pub const OBSERVER_APPLIED: &str = "zeus.observer_applied";
/// Observers that detected a gap and requested a resync.
pub const OBSERVER_GAP_RESYNCS: &str = "zeus.observer_gap_resyncs";
/// Proxy reconnects to a different observer after a failed healthcheck.
pub const PROXY_FAILOVERS: &str = "zeus.proxy_failovers";
/// Proxy failovers that found no alternative observer.
pub const PROXY_FAILOVER_EXHAUSTED: &str = "zeus.proxy_failover_exhausted";
/// Cache-changing notifies applied at proxies.
pub const PROXY_UPDATES: &str = "zeus.proxy_updates";
/// Driver writes that found no reachable leader.
pub const WRITES_UNROUTABLE: &str = "zeus.writes_unroutable";
/// Proxy cache entries dropped and re-fetched from scratch on a
/// [`crate::proxy::ProxyCmd::Resync`] (the audit's repair verb).
pub const PROXY_RESYNCS: &str = "zeus.proxy_resyncs";
/// Watch-lease establishments and renewals processed by observers: one
/// `LeaseRenew` per watcher per renewal interval replaces the old
/// per-path `Subscribe` sent on every healthy healthcheck.
pub const LEASE_RENEWALS: &str = "zeus.lease_renewals";
/// Watchers that fell back to a full anti-entropy re-subscribe after a
/// lease nack, a failed-lease pong, or an observer restart fenced their
/// lease epoch off.
pub const LEASE_FALLS_BACK: &str = "zeus.lease_falls_back";
/// Leases expired by the observer's anti-entropy sweep (the watcher
/// stopped renewing — partitioned, crashed, or failed over elsewhere);
/// the watches are dropped with the lease.
pub const LEASE_EXPIRIES: &str = "zeus.lease_expiries";
/// Frame-loss repairs: the lease counters disagreed at a ping/renewal,
/// so the observer re-pushed the full current state of the watcher's
/// paths (replacing the old per-check re-subscribe as the loss repair).
pub const LEASE_REPAIRS: &str = "zeus.lease_repairs";

/// Registers `# HELP` text for the lease counters so the Prometheus
/// export carries both `# HELP` and `# TYPE` lines for them. Called once
/// at deployment install.
pub fn register_help(m: &mut simnet::stats::Metrics) {
    m.set_help(
        LEASE_RENEWALS,
        "Watch-lease establishments and renewals processed by observers",
    );
    m.set_help(
        LEASE_FALLS_BACK,
        "Watchers that fell back to a full anti-entropy re-subscribe",
    );
    m.set_help(
        LEASE_EXPIRIES,
        "Leases expired by the observer anti-entropy sweep",
    );
    m.set_help(
        LEASE_REPAIRS,
        "Frame-loss repairs triggered by lease counter mismatches",
    );
}

/// Drift-audit sweep results (the `repro audit` fingerprint pass).
pub mod audit {
    /// Proxy cache entries missing a path they subscribe to.
    pub const DRIFT_MISSING: &str = "audit.drift_missing";
    /// Proxy cache entries behind the canonical zxid.
    pub const DRIFT_STALE: &str = "audit.drift_stale";
    /// Proxy cache entries at the canonical zxid with wrong bytes.
    pub const DRIFT_CORRUPT: &str = "audit.drift_corrupt";
    /// Targeted resyncs issued to repair detected drift.
    pub const REPAIRS: &str = "audit.repairs";
}

/// Pull-based distribution (the §4 push-vs-pull comparison).
pub mod pull {
    /// Poll requests issued by pull clients.
    pub const POLLS: &str = "pull.polls";
    /// Polls that returned no change.
    pub const EMPTY_POLLS: &str = "pull.empty_polls";
    /// Bytes sent in poll replies.
    pub const REPLY_BYTES: &str = "pull.reply_bytes";
    /// Bytes sent in poll requests.
    pub const POLL_BYTES: &str = "pull.poll_bytes";
    /// Staleness of configs at poll observation points.
    pub const STALENESS_S: &str = "pull.staleness_s";
}

/// Trace hop and annotation names for the Zeus leg of a commit's journey.
pub mod hops {
    /// Leader accepted a proposal and assigned a zxid.
    pub const LEADER_PROPOSE: &str = "zeus.leader_propose";
    /// Follower persisted an append.
    pub const FOLLOWER_APPEND: &str = "zeus.follower_append";
    /// Leader committed after quorum ack.
    pub const QUORUM_COMMIT: &str = "zeus.quorum_commit";
    /// Observer applied the committed write (push or sync path).
    pub const OBSERVER_APPLY: &str = "zeus.observer_apply";
    /// Proxy applied the write to the on-disk cache (client visibility).
    pub const PROXY_APPLY: &str = "zeus.proxy_apply";
    /// Annotation: heartbeat pacer retransmitted an append.
    pub const RETRANSMIT: &str = "zeus.retransmit";
    /// Annotation: write re-proposed by a newly elected leader.
    pub const REPROPOSE: &str = "zeus.repropose";
}
