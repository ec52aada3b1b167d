"""Shared test helpers."""

import sys


def force_coroutine_path(device):
    """Send every op on ``device`` down the coroutine path.

    ``SsdDevice.submit`` times an op itself only when, among its other
    checks, a queue slot is free: the single-NCQ device takes that slot
    inline, any device with ``_ncq = None`` asks ``_try_admit``.  Routing
    the device through the hook and making the hook refuse sends every
    op to ``_do_op`` — the tests' reference executor — which acquires
    its slot through the same queues.
    ``test_forced_device_runs_every_op_as_a_coroutine`` holds it to that.
    """
    device._ncq = None
    device._try_admit = lambda q: False
    return device


def count_calls(run, path_parts):
    """Python ``call`` events (generator resumes included) during
    ``run()`` whose code lives in a file whose path contains one of
    ``path_parts`` — what kvbench reports as a layer's ``calls_per_req``."""
    calls = [0]

    def profiler(frame, event, _arg):
        if event == "call":
            filename = frame.f_code.co_filename.replace("\\", "/")
            if any(part in filename for part in path_parts):
                calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls[0]
