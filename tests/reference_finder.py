"""Chronological finder search without verdict memos, kept as the reference for ``finder``.

This is the ``_search`` that the memoizing, backjumping search of
``countermodel.finder`` replaced, kept verbatim apart from this docstring,
absolute imports and its node count, which goes through ``_State.count``.
It re-runs every attached check on every candidate and backtracks one slot
at a time.  Run in its place, it must hand
``finish`` the same complete candidates in the same order, so it gives the
same certificate bytes and reasons from at least as many nodes (under a
node cap, the backjumping search may get further).
"""
from __future__ import annotations

from typing import Callable

from countermodel.checker import Certificate
from countermodel.finder import _latest_slot, _Refuter, _Slot, _State
from countermodel.structures import Structure


def _search(
    slots: list[_Slot],
    checks: list[tuple[set[str], _Refuter]],
    state: _State,
    points: tuple[int, ...],
    finish: Callable[[dict[str, object]], tuple[Structure, Certificate] | None],
) -> tuple[Structure, Certificate] | None:
    position = {slot.name: index for index, slot in enumerate(slots)}
    checks_by_slot: list[list[_Refuter]] = [[] for _ in slots]
    for symbols, refuted in checks:
        index = _latest_slot(position, symbols)
        if index is not None:
            checks_by_slot[index].append(refuted)

    env: dict[str, object] = {}
    interps: dict[str, object] = {}

    def descend(index: int) -> tuple[Structure, Certificate] | None:
        if index == len(slots):
            state.count(state.nodes + 1)
            return finish(interps)
        slot = slots[index]
        attached = checks_by_slot[index]
        for candidate in slot.candidates:
            state.count(state.nodes + 1)
            env[slot.name] = candidate.fast
            interps[slot.name] = candidate.interp
            for refuted in attached:
                if refuted(env, points):
                    break
            else:
                result = descend(index + 1)
                if result is not None:
                    return result
        env.pop(slot.name, None)
        interps.pop(slot.name, None)
        return None

    return descend(0)
