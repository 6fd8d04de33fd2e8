"""The solvability checker's options, importable without the checker.

:class:`CheckOptions` travels further than the checker that reads it: the
result store hashes it into cache keys, sessions and sweep backends carry
it, manifests and service requests serialize it.  None of those needs
Theorem 5.5's deepening or the Theorem 5.11 provers, so the class lives
here, on the standard library alone, and
:mod:`repro.consensus.solvability` re-exports it: both import paths name
one class, and its ``to_dict`` (hence every ``cache_key``) is unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Mapping

from repro.errors import AnalysisError

__all__ = ["CheckOptions"]


@dataclass(frozen=True)
class CheckOptions:
    """Tuning knobs of the solvability checker, as one value object.

    Absorbs what used to be a flat pile of ``check_consensus`` keyword
    arguments, so sessions, sweep backends, and manifests can carry,
    serialize, and compare checker configurations as a whole.

    Attributes
    ----------
    max_depth:
        Iterative-deepening bound for the decision-table search.
    max_nodes:
        Prefix-space node budget; exceeding it aborts the deepening.
    use_impossibility_provers / use_broadcaster_certificate:
        Allow disabling individual certificates (useful for ablations).

    Every construction, :meth:`replace` and :meth:`from_dict` checks the
    fields: each must have its field's type (a bool is not an int) and lie
    in its range (``max_depth >= 0``, ``max_nodes >= 1``), or
    :class:`~repro.errors.AnalysisError` is raised instead of running (and
    caching) a check under a junk key.  The checker runs serially in the
    calling process; sweeps get their parallelism at job granularity from
    the sweep backends.
    """

    max_depth: int = 10
    max_nodes: int = 2_000_000
    use_impossibility_provers: bool = True
    use_broadcaster_certificate: bool = True

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            _check_option(name, getattr(self, name))

    def replace(self, **changes: Any) -> CheckOptions:
        """A copy with the given fields changed."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (sweep manifests embed this)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> CheckOptions:
        """Inverse of :meth:`to_dict`.

        ``data`` must be a mapping, and unknown keys are rejected by name.
        The keys of removed knobs (:data:`_LEGACY_OPTIONS`) are validated
        as before and dropped, so manifests, fleet directories, and client
        requests written before their removal still load; the fields are
        checked by the constructor.
        """
        if not isinstance(data, Mapping):
            raise AnalysisError(
                f"CheckOptions must be a mapping, got {type(data).__name__}"
            )
        unknown = set(data) - set(cls.__dataclass_fields__) - _LEGACY_OPTIONS
        if unknown:
            raise AnalysisError(f"unknown CheckOptions fields: {sorted(unknown)}")
        for name in _LEGACY_OPTIONS.intersection(data):
            _check_option(name, data[name])
        return cls(
            **{name: value for name, value in data.items() if name not in _LEGACY_OPTIONS}
        )


#: Keys of removed knobs that old manifests, fleet directories and client
#: requests may still carry: :meth:`CheckOptions.from_dict` validates them
#: as it did before their removal and then drops them.
_LEGACY_OPTIONS = frozenset(
    {"memo_extensions", "extension_workers", "plan_cache_size", "layer_backend"}
)

#: Smallest allowed value of each integer :class:`CheckOptions` field.
_OPTION_INT_FLOORS = {
    "max_depth": 0,
    "max_nodes": 1,
    "extension_workers": 1,
    "plan_cache_size": 1,
}


def _check_option(name: str, value: object) -> None:
    """Raise :class:`AnalysisError` unless ``value`` suits field ``name``."""
    if name == "memo_extensions":
        return  # dropped before options were type-checked: any value loads
    if value is None and name in ("plan_cache_size", "layer_backend"):
        return
    if name == "layer_backend":
        if value not in ("numpy", "python"):
            raise AnalysisError(
                f"CheckOptions.layer_backend must be None or one of "
                f"('numpy', 'python'), got {value!r}"
            )
    elif name in _OPTION_INT_FLOORS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise AnalysisError(f"CheckOptions.{name} must be an int, got {value!r}")
        if value < _OPTION_INT_FLOORS[name]:
            raise AnalysisError(
                f"CheckOptions.{name} must be >= {_OPTION_INT_FLOORS[name]}, "
                f"got {value}"
            )
    elif not isinstance(value, bool):
        raise AnalysisError(f"CheckOptions.{name} must be a bool, got {value!r}")
