"""The tests' reference for the package's greedy cover: the cover written
on Python sets of items, one (item, covers) candidate per row, as the
package ran it before its covers took a boolean matrix."""

from teachsim.mdp_teaching import UnteachableError, _encode


def greedy_set_cover(required, candidates) -> list:
    """Greedy cover: repeatedly pick the candidate covering the most
    still-uncovered items. ``candidates`` is a sequence of (item, covers)
    pairs; ties go to the smallest encoding. Raises
    :class:`UnteachableError` when something is coverable by no candidate.
    """
    remaining = set(required)
    coverable: set = set()
    for _, covers in candidates:
        coverable |= covers
    orphans = remaining - coverable
    if orphans:
        raise UnteachableError(
            f"no candidate covers: {sorted(orphans, key=_encode)!r}")
    ranked = sorted(candidates, key=lambda ic: _encode(ic[0]))
    chosen = []
    while remaining:
        best_item, best_covers, best_gain = None, None, 0
        for item, covers in ranked:
            gain = len(covers & remaining)
            if gain > best_gain:
                best_item, best_covers, best_gain = item, covers, gain
        chosen.append(best_item)
        remaining -= best_covers
    return chosen
