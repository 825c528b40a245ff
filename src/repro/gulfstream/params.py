"""Protocol parameters.

The paper's configurable quantities keep their names:

* ``beacon_duration`` — *T_beacon*, the initial beaconing phase (the Figure 5
  experiments use 5, 10 and 20 s);
* ``amg_stable_wait`` — *T_amg*, how long an AMG leader waits with no
  membership change before declaring its membership stable (5 s in the
  paper's runs);
* ``gsc_stable_wait`` — *T_gsc*, how long GulfStream Central waits with no
  incoming reports before declaring the initial discovery stable (15 s);
* ``hb_interval`` / ``hb_miss_threshold`` — the heartbeat frequency and the
  failure-detector sensitivity the paper trades off in §3.

Everything else is an engineering constant the paper leaves implicit. The
ones some run varies are :class:`GSParams` fields, documented where they are
consumed; the timings no run varies are the module constants below, and the
wire sizes are constants of :mod:`repro.gulfstream.messages`, the wire-format
module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CONSENSUS_WINDOW", "GSParams", "REBEACON_DURATION", "REPORT_COALESCE"]

#: duration of the fallback re-beacon phase after a formation timeout
REBEACON_DURATION = 2.0
#: window to collect consensus when ``GSParams.verify_probe`` is off
CONSENSUS_WINDOW = 3.0
#: coalescing window for post-stability membership deltas to GSC
REPORT_COALESCE = 0.2


@dataclass(frozen=True)
class GSParams:
    """All tunables of the GulfStream protocol stack (times in seconds)."""

    # -- discovery (§2.1) -------------------------------------------------
    #: T_beacon: duration of the initial beaconing phase. Zero is legal and
    #: produces the singleton-then-merge behaviour §2.1 warns is costlier.
    beacon_duration: float = 5.0
    #: period of BEACON multicasts (during discovery and for leaders after)
    beacon_interval: float = 1.0
    #: how long a deferring adapter waits for the winner's Prepare before
    #: falling back to a fresh (short) beacon phase
    form_timeout: float = 4.0

    # -- two-phase commit --------------------------------------------------
    #: how long the coordinator collects PrepareAcks before committing with
    #: whoever answered (non-answerers are dropped from the new view)
    twopc_timeout: float = 1.0

    # -- stability declaration (§4.1, Equation 1) --------------------------
    #: T_amg: leader quiet period before reporting stable membership to GSC
    amg_stable_wait: float = 5.0
    #: T_gsc: GSC quiet period before declaring initial discovery stable
    gsc_stable_wait: float = 15.0

    # -- heartbeating (§3) --------------------------------------------------
    #: heartbeat period t_hb
    hb_interval: float = 1.0
    #: per-tick send jitter as a fraction of ``hb_interval`` (±), keeping
    #: ring heartbeats from phase-locking across members; must stay in
    #: ``[0, 1)`` so the derived jitter satisfies the Timer's
    #: ``jitter < interval`` requirement
    hb_jitter_frac: float = 0.05
    #: consecutive missed heartbeats before suspecting a neighbour (the
    #: paper's "one strike and you're out" is hb_miss_threshold=1)
    hb_miss_threshold: int = 2
    #: "unidirectional" (monitor left only) or "bidirectional" (Figure 4)
    hb_mode: str = "bidirectional"
    #: in bidirectional mode, require both neighbours' suspicion before the
    #: leader acts without its own probe evidence
    consensus: bool = True
    #: leader verifies every suspicion with a direct probe before declaring
    #: death ("the AMG leader first attempts to verify the reported failure")
    verify_probe: bool = True
    #: probe reply deadline and number of attempts
    probe_timeout: float = 1.0
    probe_retries: int = 2

    # -- member self-protection --------------------------------------------
    #: a non-leader that hears no heartbeat from any monitored neighbour for
    #: this long, and cannot reach its leader, promotes itself to a
    #: singleton leader and starts beaconing (the §3.1 moved-adapter path)
    orphan_timeout: float = 6.0
    #: per-rank stagger before a member attempts leader-death takeover, so
    #: the second-ranked member goes first
    takeover_stagger: float = 1.0
    #: retries for Suspect delivery to the leader (acked messages)
    suspect_retries: int = 2
    suspect_retry_interval: float = 1.0

    # -- reporting hierarchy (§2.2) ------------------------------------------
    #: retry period while the admin adapter has no leader to report to
    report_retry_interval: float = 1.0

    # -- GulfStream Central -------------------------------------------------
    #: window within which a removal followed by an addition of the same
    #: adapter is inferred to be a domain move (§3.1)
    move_window: float = 30.0
    #: deadline for an *expected* move to complete before the suppressed
    #: failure notification is released after all
    move_deadline: float = 60.0

    # -- subgroup heartbeating extension (§4.2) ------------------------------
    #: if set, AMGs larger than this are split into subgroups of this size,
    #: heartbeating only internally while the leader polls each subgroup
    subgroup_size: int | None = None
    #: leader poll period per subgroup ("at a very low frequency")
    subgroup_poll_interval: float = 10.0

    def derive(self, **changes) -> "GSParams":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.beacon_duration < 0:
            raise ValueError("beacon_duration must be >= 0")
        if self.beacon_interval <= 0:
            raise ValueError("beacon_interval must be > 0")
        if self.hb_interval <= 0:
            raise ValueError("hb_interval must be > 0")
        if self.hb_miss_threshold < 1:
            raise ValueError("hb_miss_threshold must be >= 1")
        if not 0.0 <= self.hb_jitter_frac < 1.0:
            # the Timer rejects jitter >= interval; a fraction in [0, 1)
            # guarantees hb_jitter_frac * hb_interval < hb_interval
            raise ValueError("hb_jitter_frac must satisfy 0 <= frac < 1")
        if self.hb_mode not in ("unidirectional", "bidirectional"):
            raise ValueError(f"unknown hb_mode {self.hb_mode!r}")
        if self.subgroup_size is not None and self.subgroup_size < 2:
            raise ValueError("subgroup_size must be >= 2 when set")
        if self.probe_retries < 0:
            raise ValueError("probe_retries must be >= 0")
