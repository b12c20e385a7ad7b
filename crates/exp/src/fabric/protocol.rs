//! The line-oriented fabric protocol (`stabcon-fabric/8`) between the
//! `stabcon serve` queue daemon, `stabcon work` workers, and the
//! submission clients (`stabcon submit` / `status` / `cancel`).
//!
//! One flat JSON object per line, encoded with the workspace's own
//! [`stabcon_util::jsonl`] builders — the same escaping the result store
//! uses, so any store/telemetry line survives the wire verbatim (pinned by
//! `tests/fabric_protocol_props.rs`). Every message carries a `kind` field;
//! unknown kinds and malformed lines are decode errors, never silently
//! dropped, because a desynced fabric must fail loudly. [`write_frame`]
//! puts one message on the wire as a single write.
//!
//! The conversation (workers and clients share one handshake; a
//! connection may mix control and data frames):
//!
//! ```text
//! peer                            daemon
//!   Hello{schema,worker}     →
//!                            ←  Welcome{campaign,cells}   (schema is /7;
//!                                 cells counts live jobs)
//!                            ←  Reject{reason}            (any other schema)
//!   Submit{descriptor,fp}    →
//!                            ←  Accepted{job,cells,store}
//!                            ←  Rejected{code,reason}     (bad-spec,
//!                                 over-quota, draining, bad-fingerprint)
//!   Status{job?}             →
//!                            ←  StatusReport{…,jobs} + jobs × JobStatus
//!   Cancel{job}              →
//!                            ←  Cancelled{job,state} | Rejected{…}
//!   Claim                    →
//!                            ←  Lease2{job,cell,lease_ms,descriptor,fp}
//!                            ←  Wait{retry_ms}            (all leased out;
//!                                 the daemon holds the claim until a
//!                                 cell frees up or lease/4 passes, and
//!                                 a hold that runs out says 0: claim
//!                                 again now)
//!                            ←  Drained                   (queue idle and
//!                                 closed, or daemon halting)
//!   Renew2{job,cell}         →     (heartbeat while the cell runs — the
//!                                   daemon extends the lease deadline, so
//!                                   slow-but-alive ≠ dead; fire-and-forget)
//!   Telemetry{line}          →     (zero or more; routed to the job of the
//!                                   connection's last Lease2)
//!   Result2{job,cell,line,…} →
//!   Claim                    →      …and so on until Drained.
//!   Goodbye                  →     (graceful drain: no more frames coming)
//! ```
//!
//! A lease ships the campaign's *spec descriptor* (preset name plus the
//! CLI-shaped overrides) and its grid fingerprint, so the worker expands
//! the grid locally and verifies the fingerprint before running a single
//! trial: no cell spec ever crosses the wire, only ids.
//!
//! [`Msg::Lease`], [`Msg::Result`] and [`Msg::Renew`] are the untagged
//! single-campaign frames of the retired `stabcon-fabric/1`. No fabric
//! path sends them any more, and the daemon treats one as a protocol
//! violation; they remain decodable so that tools matching [`Msg`]
//! exhaustively (the benchmark's frame-counting relay) keep compiling.

use std::io::{BufRead, BufReader, Lines, Write};
use std::net::TcpStream;

use stabcon_util::jsonl::{get, parse_flat, JsonObj, JsonScalar};

/// Version tag every peer sends in its [`Msg::Hello`]; the daemon rejects
/// any other value. Fingerprints travel per job (in [`Msg::Submit`] and
/// [`Msg::Lease2`]), not per connection.
///
/// `/3` through `/8` frames are those of `/2`; each bump moves with the
/// store's schema (`stabcon-campaign/4` through `/9`), so a worker built
/// for an older stream cannot lease cells from a daemon that writes
/// new-stream stores.
pub const FABRIC_SCHEMA: &str = "stabcon-fabric/8";

/// Write `msg` as one wire line with a single `write_all`, so a frame never
/// leaves in two segments (which Nagle's algorithm and delayed ACKs would
/// stall).
pub fn write_frame<W: Write + ?Sized>(w: &mut W, msg: &Msg) -> std::io::Result<()> {
    let mut line = msg.encode();
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// Why a peer's exchange with the daemon ended.
#[derive(Debug)]
pub(crate) enum PeerError {
    /// The connection failed or desynced (refused connect, closed socket,
    /// torn or unexpected frame): the daemon may be restarting, so dialling
    /// again can help.
    Lost(String),
    /// The daemon refused the peer, or the two sides disagree: dialling
    /// again cannot help.
    Fatal(String),
}

/// A line reader over the read half of a daemon connection.
pub(crate) type FrameLines = Lines<BufReader<TcpStream>>;

/// Dial the daemon at `addr` and say Hello as `peer`: the one handshake of
/// workers and control clients. Returns the write half and a line reader
/// on the read half. A [`Msg::Reject`] is [`PeerError::Fatal`]; every
/// other failure is [`PeerError::Lost`].
pub(crate) fn dial(addr: &str, peer: &str) -> Result<(TcpStream, FrameLines), PeerError> {
    let lost = PeerError::Lost;
    let mut stream = TcpStream::connect(addr).map_err(|e| lost(format!("connect {addr}: {e}")))?;
    // Frames are small request/reply lines: send each now.
    let _ = stream.set_nodelay(true);
    let reader = stream
        .try_clone()
        .map_err(|e| lost(format!("clone connection: {e}")))?;
    let mut lines = BufReader::new(reader).lines();
    let hello = Msg::Hello {
        schema: FABRIC_SCHEMA.into(),
        worker: peer.into(),
    };
    write_frame(&mut stream, &hello).map_err(|e| lost(format!("send: {e}")))?;
    match read_frame(&mut lines)? {
        Msg::Welcome { .. } => Ok((stream, lines)),
        Msg::Reject { reason } => Err(PeerError::Fatal(format!("rejected: {reason}"))),
        other => Err(lost(format!("unexpected handshake reply {other:?}"))),
    }
}

/// Read and decode the daemon's next frame.
pub(crate) fn read_frame(lines: &mut FrameLines) -> Result<Msg, PeerError> {
    let line = lines
        .next()
        .ok_or_else(|| PeerError::Lost("daemon closed the connection".into()))?
        .map_err(|e| PeerError::Lost(format!("read: {e}")))?;
    Msg::decode(&line).map_err(PeerError::Lost)
}

/// The CLI-shaped campaign descriptor shipped inside [`Msg::Submit`] and
/// [`Msg::Lease2`]: a preset name plus the same overrides `stabcon
/// campaign run` accepts on the command line. Shipping the *description*
/// rather than the expanded grid keeps the determinism contract: both
/// sides build and expand the spec themselves and compare fingerprints.
///
/// Optional fields are encoded by omission; `ns` is the CLI's
/// comma-separated list (e.g. `"64,96"`), kept as a string at the wire
/// layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpecDescriptor {
    /// Preset name (see `stabcon_exp::presets::PRESET_NAMES`).
    pub preset: String,
    /// Campaign name override (also the submission's display name).
    pub name: Option<String>,
    /// Trials-per-cell override.
    pub trials: Option<u64>,
    /// Master seed override.
    pub seed: Option<u64>,
    /// Population-size list override, comma-separated.
    pub ns: Option<String>,
}

impl SpecDescriptor {
    /// Append the descriptor's fields to a JSON object under construction
    /// (shared with the jobs journal, which records submissions in the
    /// same shape).
    pub(crate) fn encode_into(&self, mut obj: JsonObj) -> JsonObj {
        obj = obj.str_field("preset", &self.preset);
        if let Some(name) = &self.name {
            obj = obj.str_field("name", name);
        }
        if let Some(trials) = self.trials {
            obj = obj.u64_field("trials", trials);
        }
        if let Some(seed) = self.seed {
            obj = obj.u64_field("seed", seed);
        }
        if let Some(ns) = &self.ns {
            obj = obj.str_field("ns", ns);
        }
        obj
    }

    /// Read the descriptor's fields back out of a parsed flat object.
    pub(crate) fn decode_from(
        obj: &stabcon_util::jsonl::FlatObject,
        kind: &str,
    ) -> Result<Self, String> {
        let preset = get(obj, "preset")
            .and_then(JsonScalar::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("fabric: {kind} message missing string field 'preset'"))?;
        let opt_str = |key: &str| -> Result<Option<String>, String> {
            match get(obj, key) {
                None => Ok(None),
                Some(v) => v.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
                    format!("fabric: {kind} message field '{key}' must be a string")
                }),
            }
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
            match get(obj, key) {
                None => Ok(None),
                Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                    format!("fabric: {kind} message field '{key}' must be an integer")
                }),
            }
        };
        Ok(SpecDescriptor {
            preset,
            name: opt_str("name")?,
            trials: opt_u64("trials")?,
            seed: opt_u64("seed")?,
            ns: opt_str("ns")?,
        })
    }
}

/// One fabric protocol message (one line on the wire).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Peer → daemon greeting: protocol version and a display name for
    /// progress output.
    Hello {
        /// Protocol version tag ([`FABRIC_SCHEMA`]).
        schema: String,
        /// Peer display name (host-chosen, for progress lines only).
        worker: String,
    },
    /// Daemon → peer: handshake accepted.
    Welcome {
        /// Display label (`queue`).
        campaign: String,
        /// Live (non-terminal) jobs in the queue.
        cells: u64,
    },
    /// Daemon → peer: handshake refused (unsupported schema); the daemon
    /// closes the connection after sending this.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Worker → daemon: ready for a cell.
    Claim,
    /// Retired `/1` lease (decode-only, see the module docs): run this
    /// cell of the connection's one campaign.
    Lease {
        /// Cell id to run.
        cell: u64,
        /// Lease duration in milliseconds.
        lease_ms: u64,
    },
    /// Daemon → worker: nothing free right now (all remaining cells are
    /// leased out) — claim again after `retry_ms`. The queue daemon holds
    /// a claim for up to its retry window before it answers this, so its
    /// `Wait` says `0`: claim again now.
    Wait {
        /// Suggested retry delay in milliseconds; `0` means claim again
        /// now.
        retry_ms: u64,
    },
    /// Daemon → worker: the queue is idle and closed (or the daemon is
    /// halting); disconnect.
    Drained,
    /// Retired `/1` heartbeat (decode-only, see the module docs).
    Renew {
        /// The leased cell being heartbeat.
        cell: u64,
    },
    /// Peer → daemon: graceful drain (e.g. SIGTERM) — the worker shipped
    /// everything it completed and will not claim again. Distinguishes an
    /// intentional departure from a crash in the daemon's accounting; the
    /// connection closes after this.
    Goodbye,
    /// Worker → daemon: one `stabcon-telemetry/1` line (snapshot or
    /// cell_profile), shipped verbatim. The daemon files it under the job
    /// of the connection's last [`Msg::Lease2`].
    Telemetry {
        /// The raw telemetry JSONL line.
        line: String,
    },
    /// Retired `/1` result (decode-only, see the module docs): one
    /// completed cell of the connection's one campaign.
    Result {
        /// Cell id (must match the id inside `line`).
        cell: u64,
        /// The raw store cell line.
        line: String,
        /// Wall-clock seconds the cell took on the worker.
        elapsed_secs: f64,
        /// Trials the cell ran.
        trials: u64,
    },
    /// Client → daemon: submit a campaign. The client builds the spec
    /// locally and sends its fingerprint; the daemon re-builds from the
    /// same descriptor and refuses on mismatch, so binary skew is caught
    /// at submit time.
    Submit {
        /// Submitting client's name (admission quota is per client).
        client: String,
        /// The campaign, as preset + overrides.
        spec: SpecDescriptor,
        /// Client-side grid fingerprint as 16 lowercase hex digits.
        fingerprint: String,
    },
    /// Daemon → client: submission admitted and journaled.
    Accepted {
        /// Queue-assigned job id (stable across daemon restarts).
        job: u64,
        /// Total cells in the expanded grid.
        cells: u64,
        /// Daemon-side per-job store path (informational).
        store: String,
    },
    /// Daemon → client: submission (or cancel) refused. The
    /// connection stays open — a rejection never poisons the queue.
    Rejected {
        /// Machine-readable refusal code: `bad-spec`, `over-quota`,
        /// `draining`, `bad-fingerprint`, `unknown-job`, or `terminal-job`.
        code: String,
        /// Human-readable detail.
        reason: String,
    },
    /// Client → daemon: report queue state — for every job, or for
    /// one job if `job` is set.
    Status {
        /// Restrict the report to this job id (encoded by omission).
        job: Option<u64>,
    },
    /// Daemon → client: queue summary. Exactly `jobs` ×
    /// [`Msg::JobStatus`] frames follow on the same connection.
    StatusReport {
        /// Whether new submissions are currently admitted (false once the
        /// daemon is draining toward shutdown).
        accepting: bool,
        /// Jobs waiting for a free activation slot.
        queued: u64,
        /// Jobs currently running.
        running: u64,
        /// Jobs fully written to their stores.
        done: u64,
        /// Jobs cancelled before completion.
        cancelled: u64,
        /// Jobs that failed (store I/O on activation).
        failed: u64,
        /// Number of `JobStatus` frames that follow.
        jobs: u64,
    },
    /// Daemon → client: one job's status line, following a
    /// [`Msg::StatusReport`].
    JobStatus {
        /// Queue-assigned job id.
        job: u64,
        /// Campaign name.
        name: String,
        /// Lifecycle state: `queued`, `running`, `done`, `cancelled`, or
        /// `failed`.
        state: String,
        /// Submitting client.
        client: String,
        /// Total cells in the grid.
        cells: u64,
        /// Cells flushed to the store (contiguous prefix) plus parked.
        written: u64,
        /// Trials ingested so far (basis for the trials/s rate).
        trials: u64,
        /// Wall-clock seconds since the job started running (0 if queued).
        elapsed_secs: f64,
    },
    /// Client → daemon: cancel a job in any non-terminal state.
    Cancel {
        /// Job id to cancel.
        job: u64,
    },
    /// Daemon → client: cancel acknowledged; `state` is the job's
    /// resulting lifecycle state (always `cancelled`).
    Cancelled {
        /// The cancelled job id.
        job: u64,
        /// Resulting lifecycle state.
        state: String,
    },
    /// Daemon → worker: run this cell of this job; the lease expires (and
    /// the cell is re-claimable by another worker) after `lease_ms` unless
    /// renewed. Carries the job's spec descriptor and fingerprint so the
    /// worker can expand the grid locally and verify it before running.
    Lease2 {
        /// Job id the cell belongs to.
        job: u64,
        /// Cell id to run.
        cell: u64,
        /// Lease duration in milliseconds.
        lease_ms: u64,
        /// The job's campaign descriptor.
        spec: SpecDescriptor,
        /// The job's grid fingerprint as 16 lowercase hex digits.
        fingerprint: String,
    },
    /// Worker → daemon: one completed cell of one job. `line` is the exact
    /// store cell line (byte-preserved into the job's store); the timing
    /// fields are advisory, for the timings sidecar.
    Result2 {
        /// Job id the cell belongs to.
        job: u64,
        /// Cell id (must match the id inside `line`).
        cell: u64,
        /// The raw store cell line.
        line: String,
        /// Wall-clock seconds the cell took on the worker.
        elapsed_secs: f64,
        /// Trials the cell ran.
        trials: u64,
    },
    /// Worker → daemon: lease heartbeat — still alive and working on this
    /// cell; the daemon pushes the deadline out by one lease (if this
    /// connection still holds the lease; a renewal for a reclaimed or
    /// foreign lease is ignored). Fire-and-forget: the daemon never
    /// replies, so renewals interleave with the request/reply conversation
    /// without desyncing it.
    Renew2 {
        /// Job id the cell belongs to.
        job: u64,
        /// The leased cell being heartbeat.
        cell: u64,
    },
}

impl Msg {
    /// Encode as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Msg::Hello { schema, worker } => JsonObj::new()
                .str_field("kind", "hello")
                .str_field("schema", schema)
                .str_field("worker", worker)
                .finish(),
            Msg::Welcome { campaign, cells } => JsonObj::new()
                .str_field("kind", "welcome")
                .str_field("campaign", campaign)
                .u64_field("cells", *cells)
                .finish(),
            Msg::Reject { reason } => JsonObj::new()
                .str_field("kind", "reject")
                .str_field("reason", reason)
                .finish(),
            Msg::Claim => JsonObj::new().str_field("kind", "claim").finish(),
            Msg::Lease { cell, lease_ms } => JsonObj::new()
                .str_field("kind", "lease")
                .u64_field("cell", *cell)
                .u64_field("lease_ms", *lease_ms)
                .finish(),
            Msg::Wait { retry_ms } => JsonObj::new()
                .str_field("kind", "wait")
                .u64_field("retry_ms", *retry_ms)
                .finish(),
            Msg::Drained => JsonObj::new().str_field("kind", "drained").finish(),
            Msg::Renew { cell } => JsonObj::new()
                .str_field("kind", "renew")
                .u64_field("cell", *cell)
                .finish(),
            Msg::Goodbye => JsonObj::new().str_field("kind", "goodbye").finish(),
            Msg::Telemetry { line } => JsonObj::new()
                .str_field("kind", "telemetry")
                .str_field("line", line)
                .finish(),
            Msg::Result {
                cell,
                line,
                elapsed_secs,
                trials,
            } => JsonObj::new()
                .str_field("kind", "result")
                .u64_field("cell", *cell)
                .str_field("line", line)
                .f64_field("elapsed_secs", *elapsed_secs)
                .u64_field("trials", *trials)
                .finish(),
            Msg::Submit {
                client,
                spec,
                fingerprint,
            } => spec
                .encode_into(
                    JsonObj::new()
                        .str_field("kind", "submit")
                        .str_field("client", client),
                )
                .str_field("fingerprint", fingerprint)
                .finish(),
            Msg::Accepted { job, cells, store } => JsonObj::new()
                .str_field("kind", "accepted")
                .u64_field("job", *job)
                .u64_field("cells", *cells)
                .str_field("store", store)
                .finish(),
            Msg::Rejected { code, reason } => JsonObj::new()
                .str_field("kind", "rejected")
                .str_field("code", code)
                .str_field("reason", reason)
                .finish(),
            Msg::Status { job } => {
                let obj = JsonObj::new().str_field("kind", "status");
                match job {
                    Some(id) => obj.u64_field("job", *id).finish(),
                    None => obj.finish(),
                }
            }
            Msg::StatusReport {
                accepting,
                queued,
                running,
                done,
                cancelled,
                failed,
                jobs,
            } => JsonObj::new()
                .str_field("kind", "status_report")
                .bool_field("accepting", *accepting)
                .u64_field("queued", *queued)
                .u64_field("running", *running)
                .u64_field("done", *done)
                .u64_field("cancelled", *cancelled)
                .u64_field("failed", *failed)
                .u64_field("jobs", *jobs)
                .finish(),
            Msg::JobStatus {
                job,
                name,
                state,
                client,
                cells,
                written,
                trials,
                elapsed_secs,
            } => JsonObj::new()
                .str_field("kind", "job_status")
                .u64_field("job", *job)
                .str_field("name", name)
                .str_field("state", state)
                .str_field("client", client)
                .u64_field("cells", *cells)
                .u64_field("written", *written)
                .u64_field("trials", *trials)
                .f64_field("elapsed_secs", *elapsed_secs)
                .finish(),
            Msg::Cancel { job } => JsonObj::new()
                .str_field("kind", "cancel")
                .u64_field("job", *job)
                .finish(),
            Msg::Cancelled { job, state } => JsonObj::new()
                .str_field("kind", "cancelled")
                .u64_field("job", *job)
                .str_field("state", state)
                .finish(),
            Msg::Lease2 {
                job,
                cell,
                lease_ms,
                spec,
                fingerprint,
            } => spec
                .encode_into(
                    JsonObj::new()
                        .str_field("kind", "lease2")
                        .u64_field("job", *job)
                        .u64_field("cell", *cell)
                        .u64_field("lease_ms", *lease_ms),
                )
                .str_field("fingerprint", fingerprint)
                .finish(),
            Msg::Result2 {
                job,
                cell,
                line,
                elapsed_secs,
                trials,
            } => JsonObj::new()
                .str_field("kind", "result2")
                .u64_field("job", *job)
                .u64_field("cell", *cell)
                .str_field("line", line)
                .f64_field("elapsed_secs", *elapsed_secs)
                .u64_field("trials", *trials)
                .finish(),
            Msg::Renew2 { job, cell } => JsonObj::new()
                .str_field("kind", "renew2")
                .u64_field("job", *job)
                .u64_field("cell", *cell)
                .finish(),
        }
    }

    /// Decode one wire line.
    pub fn decode(line: &str) -> Result<Msg, String> {
        let obj = parse_flat(line).map_err(|e| format!("fabric: bad message: {e}"))?;
        let kind = get(&obj, "kind")
            .and_then(JsonScalar::as_str)
            .ok_or("fabric: message without 'kind' field")?;
        let str_f = |key: &str| -> Result<String, String> {
            get(&obj, key)
                .and_then(JsonScalar::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("fabric: {kind} message missing string field '{key}'"))
        };
        let u64_f = |key: &str| -> Result<u64, String> {
            get(&obj, key)
                .and_then(JsonScalar::as_u64)
                .ok_or_else(|| format!("fabric: {kind} message missing integer field '{key}'"))
        };
        let f64_f = |key: &str| -> Result<f64, String> {
            get(&obj, key)
                .and_then(JsonScalar::as_f64)
                .ok_or_else(|| format!("fabric: {kind} message missing numeric field '{key}'"))
        };
        match kind {
            "hello" => Ok(Msg::Hello {
                schema: str_f("schema")?,
                worker: str_f("worker")?,
            }),
            "welcome" => Ok(Msg::Welcome {
                campaign: str_f("campaign")?,
                cells: u64_f("cells")?,
            }),
            "reject" => Ok(Msg::Reject {
                reason: str_f("reason")?,
            }),
            "claim" => Ok(Msg::Claim),
            "lease" => Ok(Msg::Lease {
                cell: u64_f("cell")?,
                lease_ms: u64_f("lease_ms")?,
            }),
            "wait" => Ok(Msg::Wait {
                retry_ms: u64_f("retry_ms")?,
            }),
            "drained" => Ok(Msg::Drained),
            "renew" => Ok(Msg::Renew {
                cell: u64_f("cell")?,
            }),
            "goodbye" => Ok(Msg::Goodbye),
            "telemetry" => Ok(Msg::Telemetry {
                line: str_f("line")?,
            }),
            "result" => Ok(Msg::Result {
                cell: u64_f("cell")?,
                line: str_f("line")?,
                elapsed_secs: f64_f("elapsed_secs")?,
                trials: u64_f("trials")?,
            }),
            "submit" => Ok(Msg::Submit {
                client: str_f("client")?,
                spec: SpecDescriptor::decode_from(&obj, kind)?,
                fingerprint: str_f("fingerprint")?,
            }),
            "accepted" => Ok(Msg::Accepted {
                job: u64_f("job")?,
                cells: u64_f("cells")?,
                store: str_f("store")?,
            }),
            "rejected" => Ok(Msg::Rejected {
                code: str_f("code")?,
                reason: str_f("reason")?,
            }),
            "status" => Ok(Msg::Status {
                job: match get(&obj, "job") {
                    None => None,
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or("fabric: status message field 'job' must be an integer")?,
                    ),
                },
            }),
            "status_report" => Ok(Msg::StatusReport {
                accepting: match get(&obj, "accepting") {
                    Some(JsonScalar::Bool(b)) => *b,
                    _ => {
                        return Err(
                            "fabric: status_report message missing boolean field 'accepting'"
                                .into(),
                        )
                    }
                },
                queued: u64_f("queued")?,
                running: u64_f("running")?,
                done: u64_f("done")?,
                cancelled: u64_f("cancelled")?,
                failed: u64_f("failed")?,
                jobs: u64_f("jobs")?,
            }),
            "job_status" => Ok(Msg::JobStatus {
                job: u64_f("job")?,
                name: str_f("name")?,
                state: str_f("state")?,
                client: str_f("client")?,
                cells: u64_f("cells")?,
                written: u64_f("written")?,
                trials: u64_f("trials")?,
                elapsed_secs: f64_f("elapsed_secs")?,
            }),
            "cancel" => Ok(Msg::Cancel { job: u64_f("job")? }),
            "cancelled" => Ok(Msg::Cancelled {
                job: u64_f("job")?,
                state: str_f("state")?,
            }),
            "lease2" => Ok(Msg::Lease2 {
                job: u64_f("job")?,
                cell: u64_f("cell")?,
                lease_ms: u64_f("lease_ms")?,
                spec: SpecDescriptor::decode_from(&obj, kind)?,
                fingerprint: str_f("fingerprint")?,
            }),
            "result2" => Ok(Msg::Result2 {
                job: u64_f("job")?,
                cell: u64_f("cell")?,
                line: str_f("line")?,
                elapsed_secs: f64_f("elapsed_secs")?,
                trials: u64_f("trials")?,
            }),
            "renew2" => Ok(Msg::Renew2 {
                job: u64_f("job")?,
                cell: u64_f("cell")?,
            }),
            other => Err(format!("fabric: unknown message kind '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips() {
        let msgs = [
            Msg::Hello {
                schema: FABRIC_SCHEMA.into(),
                worker: "host-1".into(),
            },
            Msg::Welcome {
                campaign: "smoke".into(),
                cells: 4,
            },
            Msg::Reject {
                reason: "grid fingerprint mismatch".into(),
            },
            Msg::Claim,
            Msg::Lease {
                cell: 3,
                lease_ms: 30_000,
            },
            Msg::Wait { retry_ms: 250 },
            Msg::Drained,
            Msg::Renew { cell: 3 },
            Msg::Goodbye,
            Msg::Telemetry {
                line: "{\"record\": \"snapshot\", \"cell\": 0}".into(),
            },
            Msg::Result {
                cell: 3,
                line: "{\"cell\": 3, \"mean\": 1.5}".into(),
                elapsed_secs: 0.125,
                trials: 64,
            },
            Msg::Submit {
                client: "lab-7".into(),
                spec: SpecDescriptor {
                    preset: "smoke".into(),
                    name: Some("overnight".into()),
                    trials: Some(64),
                    seed: Some(0xFEED),
                    ns: Some("64,96".into()),
                },
                fingerprint: "00c0ffee00c0ffee".into(),
            },
            Msg::Submit {
                client: "lab-7".into(),
                spec: SpecDescriptor {
                    preset: "hostile-net".into(),
                    ..SpecDescriptor::default()
                },
                fingerprint: "0123456789abcdef".into(),
            },
            Msg::Accepted {
                job: 2,
                cells: 12,
                store: "queue.jsonl.job-2.jsonl".into(),
            },
            Msg::Rejected {
                code: "over-quota".into(),
                reason: "client lab-7 already holds 4 live jobs".into(),
            },
            Msg::Status { job: None },
            Msg::Status { job: Some(2) },
            Msg::StatusReport {
                accepting: true,
                queued: 1,
                running: 2,
                done: 3,
                cancelled: 0,
                failed: 0,
                jobs: 6,
            },
            Msg::JobStatus {
                job: 2,
                name: "overnight".into(),
                state: "running".into(),
                client: "lab-7".into(),
                cells: 12,
                written: 5,
                trials: 320,
                elapsed_secs: 4.5,
            },
            Msg::Cancel { job: 2 },
            Msg::Cancelled {
                job: 2,
                state: "cancelled".into(),
            },
            Msg::Lease2 {
                job: 2,
                cell: 7,
                lease_ms: 30_000,
                spec: SpecDescriptor {
                    preset: "smoke".into(),
                    trials: Some(64),
                    ..SpecDescriptor::default()
                },
                fingerprint: "00c0ffee00c0ffee".into(),
            },
            Msg::Result2 {
                job: 2,
                cell: 7,
                line: "{\"cell\": 7, \"mean\": 1.5}".into(),
                elapsed_secs: 0.125,
                trials: 64,
            },
            Msg::Renew2 { job: 2, cell: 7 },
        ];
        for msg in msgs {
            let wire = msg.encode();
            assert!(!wire.contains('\n'), "one line per message: {wire}");
            assert_eq!(Msg::decode(&wire).expect("decode"), msg, "wire: {wire}");
        }
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(Msg::decode("{\"kind\": \"warp\"}")
            .unwrap_err()
            .contains("unknown"));
        assert!(Msg::decode("{\"cell\": 3}").unwrap_err().contains("kind"));
        assert!(Msg::decode("not json").is_err());
        // Missing required field.
        assert!(Msg::decode("{\"kind\": \"lease\", \"cell\": 1}")
            .unwrap_err()
            .contains("lease_ms"));
        // /2: missing descriptor preset.
        assert!(
            Msg::decode("{\"kind\": \"submit\", \"client\": \"c\", \"fingerprint\": \"00\"}")
                .unwrap_err()
                .contains("preset")
        );
        // /2: a present-but-mistyped optional override is an error, not None.
        assert!(Msg::decode(
            "{\"kind\": \"submit\", \"client\": \"c\", \"preset\": \"smoke\", \
             \"trials\": \"lots\", \"fingerprint\": \"00\"}"
        )
        .unwrap_err()
        .contains("trials"));
        // /2: status_report requires a real boolean.
        assert!(
            Msg::decode("{\"kind\": \"status_report\", \"accepting\": 1}")
                .unwrap_err()
                .contains("accepting")
        );
    }

    #[test]
    fn status_job_is_encoded_by_omission() {
        assert!(!Msg::Status { job: None }.encode().contains("job"));
        let wire = Msg::Status { job: Some(7) }.encode();
        assert!(wire.contains("\"job\": 7"), "wire: {wire}");
    }
}
