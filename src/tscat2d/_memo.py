"""One-entry memo for values derived from read-only inputs.

A sweep over incident waves calls the same functions again and again with
the same operator arrays, system matrix and curve.  ``LastValue`` keeps the
value of the last call together with weak references to the inputs it was
computed from, and returns it while the next call passes the same objects
(by identity) and equal plain values.  The entry is dropped as soon as any
of those inputs is freed, so the memo never keeps an input alive and never
outlives one.

Identity is a safe key only for data nobody can change: an array among the
inputs must be frozen (it and every array it views are read-only), and a
call with a writeable array skips the memo and computes afresh.  Not
supported: numpy lets an array's owner set it writeable again, and an
array that is frozen, used, made writeable, changed in place and frozen
again keeps its identity, so it gets the stale entries.
"""

from __future__ import annotations

import weakref

import numpy as np


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark a and every array it views read-only; returns a."""
    b = a
    while isinstance(b, np.ndarray):
        b.flags.writeable = False
        b = b.base
    return a


def is_frozen(a) -> bool:
    """False if a is an array that a write could reach, through it or an array it views."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return True


class LastValue:
    """The value of the last call, keyed on input identity and plain values.

    The entry is one tuple (weak references, values, value), read once and
    replaced as a whole, so a lookup never pairs one call's key with another
    call's value; when threads race, the worst case is a value built twice.
    """

    def __init__(self):
        self._entry = None

    def get(self, objects, values, build):
        """build(), or the stored value of an earlier call with the same key.

        ``objects`` are compared by identity and held weakly; ``values`` is
        compared with ``==`` and must not hold arrays.  The stored value must
        not refer to any of ``objects``, or they would never be freed.
        """
        objects = tuple(objects)
        if not all(map(is_frozen, objects)):
            return build()
        entry = self._entry
        if (
            entry is not None
            and len(entry[0]) == len(objects)
            and all(ref() is obj for ref, obj in zip(entry[0], objects))
            and entry[1] == values
        ):
            return entry[2]
        self._entry = None  # free the old value before building the new one
        value = build()
        self._entry = (tuple(weakref.ref(obj, self._drop) for obj in objects), values, value)
        return value

    def _drop(self, dead: weakref.ref):
        """Weak-reference callback: forget the entry if ``dead`` is one of its keys."""
        entry = self._entry
        if entry is not None and any(ref is dead for ref in entry[0]):
            self._entry = None
