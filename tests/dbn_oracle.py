"""The tests' exposure oracle for shift-register DBNs, written from the
rule itself rather than from the package's exposure table."""


def identifying(state) -> dict[int, tuple[int, ...]]:
    """Factors whose shift probability a state of a shift register pins
    down, in factor order, with the parent assignment the state exposes
    each at: factor 0 when bit 0 is 1, factor i when bits i - 1 and i
    differ."""
    out = {0: (1,)} if state[0] == 1 else {}
    for i in range(1, len(state)):
        if state[i - 1] != state[i]:
            out[i] = (int(state[i - 1]), int(state[i]))
    return out
