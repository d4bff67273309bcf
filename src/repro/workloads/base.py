"""Common workload container and scale definitions."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError, ValidationError
from repro.ir.ast import Kernel
from repro.isa import mismatches

#: Input scales. ``tiny`` keeps unit tests fast; ``small`` drives the
#: benchmark harness; ``paper`` records the Table 1 sizes (instantiable,
#: but impractical to simulate cycle-by-cycle in Python — see
#: EXPERIMENTS.md for the scaling rationale).
SCALES = ("tiny", "small", "paper")


@dataclass
class WorkloadInstance:
    """A kernel plus concrete inputs and its reference output."""

    name: str
    kernel: Kernel
    params: dict[str, int | float]
    arrays: dict[str, list]
    #: Names of output arrays to validate.
    outputs: list[str]
    #: Expected final contents of each output array.
    reference: dict[str, list]
    #: Absolute tolerance for float outputs (0 = exact integer match).
    tolerance: float = 0.0
    #: Free-form metadata (Table 1 description, category, sizes).
    meta: dict = field(default_factory=dict)

    def check(self, memory: dict[str, list]) -> None:
        """Raise :class:`ValidationError` if ``memory`` disagrees with the
        reference outputs.

        The error carries (workload, array, index, got, want) so the sweep
        supervisor (:mod:`repro.exp.resilient`) can classify wrong-answer
        runs separately from infrastructure failures; a missing or
        wrong-length output has ``index`` None and the two lengths
        (:func:`repro.isa.mismatches`).
        """
        want = {name: self.reference[name] for name in self.outputs}
        for name, index, got, expected in mismatches(
            want, memory, self.tolerance
        ):
            if index is None:
                message = f"output {name!r} length {got} != {expected}"
            else:
                tol = f" (tol {self.tolerance})" if self.tolerance else ""
                message = f"{name}[{index}] = {got} != {expected}{tol}"
            raise ValidationError(
                f"{self.name}: {message}", workload=self.name, array=name,
                index=index, got=got, want=expected,
            )


def require_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ReproError(
            f"unknown scale {scale!r}; expected one of {SCALES}"
        )
