"""Pure-Python staged SIC decode kernel."""


def decode_feasible(gains, tx_ids, target_tx, betas, noise_plus_far, cancel_fraction):
    """Simulate staged SIC decoding at one receiver.

    ``gains[k]`` is the power gain of the signal from transmitter
    ``tx_ids[k]`` at the receiver, normalized so that the transmit power is
    1; ``betas[k]`` is the SINR threshold that applies to that signal.
    ``noise_plus_far`` is noise power over transmit power plus the bounded
    out-of-range interference constant.

    Decoding proceeds strongest-first (ties broken by ascending transmitter
    id).  At each stage the candidate's own power is excluded from the
    interference sum; every previously decoded signal contributes only its
    residual ``(1 - cancel_fraction)`` fraction.  Returns True as soon as
    the signal from ``target_tx`` is decoded, False as soon as any stage
    fails first.
    """
    n = len(gains)
    order = sorted(range(n), key=lambda k: (-gains[k], tx_ids[k]))
    nu = noise_plus_far
    for k in range(n):
        nu += gains[k]
    for k in order:
        g = gains[k]
        # g / (nu - g) >= beta, written multiplicatively so that a zero
        # denominator (no noise, no interference) means infinite SINR.
        if g < betas[k] * (nu - g):
            return False
        if tx_ids[k] == target_tx:
            return True
        nu -= cancel_fraction * g
    return False
