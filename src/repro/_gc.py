"""The cyclic-GC pause; a stdlib-only leaf, so the store writer shares it
with the batch engine without ``repro.serving`` loading an engine layer."""

import gc
from contextlib import contextmanager


@contextmanager
def paused_gc():
    """Pause cyclic GC for the duration of one bulk phase.

    A round's shuffle, the cube assembly and a store write allocate
    hundreds of thousands of small objects that never form reference
    cycles, but every generation-0 collection they trigger eventually
    escalates to a full scan of the (huge, live) cube state.  Pausing the
    collector defers cycle detection to the phase boundary; reference
    counting still reclaims the (acyclic) bulk immediately, so peak
    memory is unchanged, and GC timing is invisible to the simulation.
    No-op when the caller already disabled the collector.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        # A plain enable() would hand the first collection everything
        # allocated during the pause (the full cube!), all of it still in
        # generation 0.  freeze/enable/unfreeze promotes it straight to
        # the oldest generation — where two survived collections would
        # have put it — so the next gen-0 pass sees only new objects.
        gc.freeze()
        gc.enable()
        gc.unfreeze()
