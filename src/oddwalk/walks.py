"""The one builder of least walks: greedy_walk.

Every least walk of the package is greedy: it moves by a rule step(v, r)
that names the next vertex and the witness taken, r being the steps left
before that move.  parity._exact_walk (the join walks of a tower),
equiv.path_exact_walk (the join walks of an equivalence plan) and
homset._least_walk (the largeness witness and the member odometer of the
full set) are such rules, and none of them steps on its own.

Past a horizon each rule reads r only through r mod 2, so there the walk
is a function of its state (v, r mod 2) and, with 2|V| states, enters a
loop within 2|V| steps.  The loop is repeated in C, as often as it fits
above the horizon, and the rest is stepped: a walk costs O(|V| + horizon)
interpreted steps whatever its length.  A walk of sys.maxsize steps or
more fits in no list, so it raises MemoryError at once.
"""

from __future__ import annotations

import sys


def greedy_walk(start, length: int, step, horizon: int) -> tuple[list, list]:
    """The vertices and witnesses of the walk of `length` steps from start
    that moves by step(v, r) -> (next vertex, witness), r the steps left.

    step must read r only through r mod 2 while r > horizon.
    """
    if length >= sys.maxsize:
        raise MemoryError
    vs, ws = [start], []
    seen: dict | None = {}   # (vertex, r mod 2) -> steps taken there
    while len(ws) < length:
        r = length - len(ws)
        if seen is not None and r > horizon:
            i = seen.setdefault((vs[-1], r % 2), len(ws))
            if i < len(ws):
                # the loop vs[i:] returns here: repeat it while it stays
                # above the horizon, then step the rest
                reps = (r - horizon) // (len(ws) - i)
                vs += vs[i + 1:] * reps
                ws += ws[i:] * reps
                seen = None
                continue
        v, w = step(vs[-1], r)
        vs.append(v)
        ws.append(w)
    return vs, ws
