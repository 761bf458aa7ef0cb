(** JBD2-style write-ahead journal for ext2.

    Transactions collect the home block numbers of dirty metadata
    (ordered mode: file data is never journaled); {!commit} copies their current content
    into the journal area behind two barriers — descriptor + content
    made durable with a device flush, then a checksummed commit record
    written FUA — and {!checkpoint} lazily writes the homes and reuses
    the space. {!replay} at mount restores every complete transaction
    and discards torn ones. Home blocks are pinned in the buffer cache
    from first {!touch} until checkpoint, so ordinary writeback can
    never land half-updated metadata ahead of its commit record.

    Stats: [jbd.commit], [jbd.replayed], [jbd.torn_discarded],
    [jbd.checkpoint]; cycles fold under the kprof scope ["jbd"]. *)

val configure : start:int -> blocks:int -> unit
(** Install the journal area (block numbers [start, start+blocks)) and
    enable journaling. *)

val disable_journal : unit -> unit

val is_enabled : unit -> bool

val is_committing : unit -> bool
(** Whether a journal commit is in progress right now (observability
    only — feeds the probe plane's journal_commit ctx field). *)

val commits : unit -> int
(** Monotonic count of committed transaction chunks; sample at syscall
    entry and compare at exit to detect commit overlap. *)

val format : unit -> unit
(** Write a fresh, empty journal superblock (mkfs). *)

val touch : int -> unit
(** The caller is about to dirty this home block under journal
    protection: add it to the running transaction and pin it. Touching
    a committed-but-not-checkpointed block checkpoints first. *)

val with_handle : (unit -> 'a) -> 'a
(** Run one mutating fs operation under a journal handle; {!commit}
    drains open handles and holds new ones out, so a commit never
    captures a half-done operation. No-op when journaling is off. *)

val commit : unit -> (unit, int) result
(** Commit the running transaction (chunked if oversized). On return
    the transaction is durable: its content survives any later crash. *)

val checkpoint : unit -> unit
(** Write committed blocks home, make them durable, advance the journal
    tail. Raises a service failure if the device refuses. *)

val replay : unit -> unit
(** Mount-time recovery: scan the journal, restore complete
    transactions in sequence order, discard the first torn one and
    everything after it, then reset the journal. The log of what
    happened is available from {!recovery_log}. *)

val checksum : txn_seq:int -> bytes list -> int
(** The 32-bit checksum a commit record carries over its transaction's
    content blocks (whole 64-bit words; block lengths are multiples of
    8). Seeded with the transaction's seq, so the same contents under
    another seq check differently. Commit and replay both use it. *)

val recovery_log : unit -> string list
(** Deterministic description of the last {!replay}: same disk image in,
    byte-identical log out. *)

val reset : unit -> unit
(** Forget all state (new boot). *)
