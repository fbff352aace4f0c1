(** Machine checkpoint/restore service for persistent-mode fuzzing (see
    DESIGN.md "Snapshot service").

    {!capture} checkpoints guest RAM, hart registers, device state, the
    rehost-hook state (MMIO memo table and pending interrupts, via the
    {!Embsan_emu.Machine.rehost} save/restore closures) and (optionally)
    the host-side sanitizer runtime.  Dirty tracking starts on in RAM and
    in the shadow planes, synced to all-zero contents
    ({!Embsan_emu.Machine.load_image} re-syncs RAM to the firmware), so
    a capture costs the pages and shadow chunks written since the last
    sync and shares the rest with the synced state: a post-boot snapshot
    holds privately only what the loader and the boot wrote.

    {!restore} reverts in O(state written since capture):
    {!Embsan_emu.Ram} dirty pages, the shadow planes' dirty chunks, and a
    translation cache that is kept when no block translated from a
    written page changed.  That fast path applies to the image RAM is
    synced to -- the latest capture or restore, with dirty tracking on
    ever since; restoring any other snapshot copies all of RAM and
    flushes the translation cache, so every restore is exact.  Host-side
    wiring — probe subscribers, trap handlers, device callbacks, the
    fuzzer's {!Embsan_emu.Coverage} state — is deliberately not captured
    and survives a restore. *)

type t

(** Checkpoint the machine (and the runtime's sanitizer state, when
    given).  Turns dirty-page tracking back on if it was off — an O(1),
    flush-free site patch (translated store sites read the tracking flag
    at run time) — in which case the capture copies every page. *)
val capture : ?runtime:Embsan_core.Runtime.t -> Embsan_emu.Machine.t -> t

(** The snapshot's RAM image ({!Embsan_emu.Ram.private_pages} counts the
    pages it holds privately). *)
val ram_image : t -> Embsan_emu.Ram.image

(** Revert machine (and captured runtime) to the snapshot; returns pages
    reverted.  RAM synced to the snapshot's image reverts only the pages
    written since; otherwise every page is copied.  The first restore of
    a snapshot and every whole-RAM one flush the translation cache;
    every later restore calls {!Embsan_emu.Machine.revalidate_tcg}, which
    keeps it unless a block translated from a page written since the
    last capture or restore no longer matches RAM. *)
val restore : t -> int
