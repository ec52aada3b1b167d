"""Shared test helpers."""


def force_coroutine_path(device):
    """Send every op on ``device`` down the coroutine path.

    The device's scheduled-completion fast path degrades to the
    coroutine pipeline whenever analytic admission declines; stubbing
    the instance's admission to always decline makes the coroutine
    path — the tests' reference executor — run every op.
    """
    device._admit_fast = lambda *args: None
    return device
