(** Machine checkpoint/restore service for persistent-mode fuzzing (see
    DESIGN.md "Snapshot service").

    {!capture} checkpoints guest RAM, hart registers and machine
    counters, and holds the restore closure of each component's
    checkpoint: every device's, the rehost hook's (MMIO memo table and
    pending interrupts, via {!Embsan_emu.Machine.rehost}'s
    [rh_checkpoint]) and (optionally) the host-side sanitizer runtime's.
    Each closure reverts the component it was captured from: a restore
    reverts the hook installed at capture.  RAM and every sanitizer
    plane is an {!Embsan_emu.Pages} store, synced to all-zero contents
    from the start ({!Embsan_emu.Machine.load_image} re-syncs RAM to the
    firmware), so a capture costs the pages written since the last sync
    and shares the rest with the synced image: a post-boot snapshot
    holds privately only what the loader and the boot wrote.

    {!restore} reverts in O(state written since capture): the dirty
    pages of each store, and a translation cache that is kept when no
    block translated from a written page changed.  That fast path
    applies to the image RAM is synced to -- the latest capture or
    restore; restoring any other snapshot copies all of RAM and flushes
    the translation cache, so every restore is exact.  Host-side
    wiring — probe subscribers, trap handlers, device callbacks, the
    fuzzer's {!Embsan_emu.Coverage} state — is deliberately not captured
    and survives a restore. *)

type t

(** Checkpoint the machine (and the runtime's sanitizer state, when
    given); RAM becomes synced to the captured image. *)
val capture : ?runtime:Embsan_core.Runtime.t -> Embsan_emu.Machine.t -> t

(** The snapshot's RAM image ({!Embsan_emu.Pages.private_pages} counts
    the pages it holds privately). *)
val ram_image : t -> Embsan_emu.Pages.image

(** Revert machine (and captured runtime) to the snapshot; returns pages
    reverted.  RAM synced to the snapshot's image reverts only the pages
    written since; otherwise every page is copied.  The first restore of
    a snapshot and every whole-RAM one flush the translation cache;
    every later restore calls {!Embsan_emu.Machine.revalidate_tcg}, which
    keeps it unless a block translated from a page written since the
    last capture or restore no longer matches RAM. *)
val restore : t -> int
