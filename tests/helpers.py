"""Shared test helpers."""

import sys


def force_coroutine_path(device):
    """Send every op on ``device`` down the coroutine path.

    The device's scheduled-completion fast path degrades to the
    coroutine pipeline whenever analytic admission declines; stubbing
    the instance's admission to always decline makes the coroutine
    path — the tests' reference executor — run every op.
    """
    device._admit_fast = lambda *args: None
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
