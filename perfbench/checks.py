"""Correctness and failure accounting, run outside the timed phase.

A pair fails when its answer is missing, when its CIGAR does not replay
its pair or does not rescore to the returned score, when the score
differs from the host scalar :class:`repro.core.wfa.WfaEngine` (which
shares no code with the vector engine the DPU path runs), or when it
disagrees with the answer it must match (a cached serve response
against the fresh one, a faulted fleet run against a calm run).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cigar import Cigar
from repro.core.penalties import Penalties
from repro.core.wfa import WfaEngine
from repro.errors import ReproError

__all__ = ["Checker"]


class Checker:
    """Counts attempted and failed pairs; memoizes the scalar oracle."""

    def __init__(self, penalties: Penalties) -> None:
        self.penalties = penalties
        self.attempted = 0
        self.failed = 0
        self._oracle: dict[tuple[str, str], int] = {}

    def oracle_score(self, pattern: str, text: str) -> int:
        key = (pattern, text)
        score = self._oracle.get(key)
        if score is None:
            engine = WfaEngine(pattern, text, self.penalties, memory_mode="low")
            score = self._oracle[key] = engine.run()
        return score

    def pair_ok(self, pair, answer: Optional[tuple[int, str]]) -> bool:
        if answer is None:
            return False
        score, cigar_text = answer
        if cigar_text is None:
            return False
        try:
            cigar = Cigar.from_string(cigar_text)
            cigar.validate(pair.pattern, pair.text)
        except (ReproError, ValueError):
            return False
        return (
            cigar.score(self.penalties) == score
            and score == self.oracle_score(pair.pattern, pair.text)
        )

    def count_failures(
        self,
        pairs: Sequence,
        answers: Sequence[Optional[tuple[int, str]]],
        reference: Optional[Sequence[Optional[tuple[int, str]]]] = None,
        same_answer_groups: Sequence[Sequence[int]] = (),
    ) -> int:
        """Failed pairs among ``answers`` (not added to the totals).

        ``reference`` (a calm run's answers) must match position by
        position; within each of ``same_answer_groups`` every answer
        must equal the group's first (the fresh one).
        """
        bad = {
            i
            for i, (pair, answer) in enumerate(zip(pairs, answers))
            if not self.pair_ok(pair, answer)
        }
        if reference is not None:
            bad.update(i for i, (a, b) in enumerate(zip(answers, reference)) if a != b)
        for group in same_answer_groups:
            bad.update(i for i in group[1:] if answers[i] != answers[group[0]])
        return len(bad)

    def record(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def planted_check(self, pairs: Sequence, answers: Sequence) -> bool:
        """Plant a wrong score into a copy of a correct answer set; the
        failure count must rise by exactly one."""
        base = self.count_failures(pairs, answers)
        good = next(
            (i for i, (p, a) in enumerate(zip(pairs, answers)) if self.pair_ok(p, a)),
            None,
        )
        if good is None:
            return False
        planted = list(answers)
        score, cigar_text = planted[good]
        planted[good] = (score + 1, cigar_text)
        return self.count_failures(pairs, planted) == base + 1
