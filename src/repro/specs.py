"""Serializable adversary specifications: the family registry.

A sweep that fans across processes — or machines — must ship *descriptions*
of adversaries, not pickled live objects.  An :class:`AdversarySpec` is that
description: a registered family name, a dict of JSON-able parameters, and
an optional sampling seed.  ``spec.build()`` reconstructs the adversary
anywhere the library is importable; ``to_dict``/``from_dict`` round-trip
through JSON, which is what the shard manifests of
:class:`~repro.fleet.FleetBackend` runs are made of.

Communication graphs are encoded by their packed integer edge keys
(:attr:`repro.core.digraph.Digraph.key`), the graphs' canonical identity.

Registered families (see :func:`families`):

``oblivious``
    Explicit graph set ``D`` (Section 6.2): ``{"n", "graphs", "name"?}``.
``two-process``
    Member ``index`` of the canonical 15-element two-process enumeration.
``santoro-widmayer``
    Bounded message loss [21]: ``{"n", "losses"}``.
``heard-of``
    HO communication predicates [7]: ``{"n", "predicate", "k"?}`` with
    predicate in ``kernel`` / ``no-split`` / ``rooted`` / ``min-degree``;
    ``k``, in ``1..n``, comes with ``min-degree`` and only with it.
``named``
    The named literature adversaries of the CLI: ``{"name"}``.
``eventually-forever``
    Non-compact ``B^* E^ω`` stabilization (Section 6.3):
    ``{"n", "base", "eventual", "name"?}``.
``stabilizing``
    VSSC-style window stabilization [23]:
    ``{"n", "graphs", "window", "require_rooted"?, "name"?}``.
``random-rooted`` / ``random-oblivious``
    Seeded sampling families: the spec's ``seed`` feeds a private
    ``random.Random(seed)``, so the sampled adversary is a pure function
    of the spec — rebuilding on another worker yields the same graphs.

New families are added with :func:`register_family`.
"""

from __future__ import annotations

import json
import random
from functools import partial
from typing import Any, Callable, Iterable, Mapping

from repro.adversaries.generators import (
    random_oblivious_adversary,
    santoro_widmayer_family,
    two_process_oblivious_family,
)
from repro.adversaries.heardof import (
    min_degree_adversary,
    no_split_adversary,
    nonempty_kernel_adversary,
    rooted_adversary,
)
from repro.adversaries.lossylink import (
    directed_only,
    eventually_one_direction,
    lossy_link_full,
    lossy_link_no_hub,
    lossy_link_with_silence,
    one_directional_and_both,
)
from repro.adversaries.oblivious import ObliviousAdversary
from repro.adversaries.stabilizing import (
    EventuallyForeverAdversary,
    StabilizingAdversary,
)
from repro.adversaries.base import MessageAdversary
from repro.adversaries.generators import out_star_set
from repro.core.digraph import Digraph, arrow
from repro.errors import AdversaryError

__all__ = [
    "AdversarySpec",
    "register_family",
    "families",
    "build_adversary",
    "NAMED_ADVERSARIES",
    "random_rooted_specs",
]

#: Named literature adversaries (previously a private table of the CLI).
NAMED_ADVERSARIES: dict[str, Callable[[], MessageAdversary]] = {
    "lossy-full": lossy_link_full,
    "no-hub": lossy_link_no_hub,
    "silence": lossy_link_with_silence,
    "to-and-both": lambda: one_directional_and_both("->"),
    "only-to": lambda: directed_only("->"),
    "eventually-to": lambda: eventually_one_direction("->"),
    "eventually-to-full-base": lambda: EventuallyForeverAdversary(
        2, [arrow("<-"), arrow("<->"), arrow("->")], [arrow("->")]
    ),
    "sw-n3-1": lambda: santoro_widmayer_family(3, 1),
    "sw-n3-2": lambda: santoro_widmayer_family(3, 2),
    "stars-n3": lambda: ObliviousAdversary(3, out_star_set(3)),
    "stabilizing-w2": lambda: StabilizingAdversary(
        2, [arrow("<-"), arrow("->")], window=2
    ),
}


class _Family:
    """One registered adversary family."""

    __slots__ = (
        "name", "builder", "requires_seed", "required", "allowed", "int_ranges"
    )

    def __init__(
        self,
        name: str,
        builder: Callable[..., MessageAdversary],
        requires_seed: bool,
        required: Iterable[str] | None,
        optional: Iterable[str],
        int_ranges: Mapping[str, tuple[int, int | None]],
    ) -> None:
        self.name = name
        self.builder = builder
        self.requires_seed = requires_seed
        # None: the family declared no param names, so none are checked.
        self.required = None if required is None else frozenset(required)
        self.allowed = frozenset(optional).union(self.required or ())
        self.int_ranges = dict(int_ranges)


_REGISTRY: dict[str, _Family] = {}


def register_family(
    name: str,
    builder: Callable[..., MessageAdversary],
    requires_seed: bool = False,
    required: Iterable[str] | None = None,
    optional: Iterable[str] = (),
    int_ranges: Mapping[str, tuple[int, int | None]] | None = None,
) -> None:
    """Register an adversary family under ``name``.

    ``builder(params, rng)`` receives the spec's params dict and — for
    seeded families — a ``random.Random`` initialized from the spec's seed
    (``None`` otherwise).  Builders must be pure: the same params and seed
    must produce the same adversary on every worker.

    ``required`` and ``optional`` name the params the builder reads.  A
    spec of a family that declares them is refused when it names another
    param, lacks a required one, or carries a seed the family does not
    take; without them, any params pass and an unused seed is ignored.
    ``int_ranges`` maps the integer params to their inclusive ``(low,
    high)`` range (``high`` ``None`` when unbounded): a spec giving one
    that is not an int (a bool is not) or lies outside is refused.
    """
    if name in _REGISTRY:
        raise AdversaryError(f"adversary family {name!r} already registered")
    _REGISTRY[name] = _Family(
        name,
        builder,
        requires_seed,
        required,
        optional,
        {} if int_ranges is None else int_ranges,
    )


def families() -> tuple[str, ...]:
    """The registered family names, sorted."""
    return tuple(sorted(_REGISTRY))


def _graphs_from_keys(n: int, keys: Iterable[int]) -> list[Digraph]:
    return [Digraph.from_key(n, key) for key in keys]


def _keys_of(graphs: Iterable[Digraph]) -> list[int]:
    return sorted(g.key for g in graphs)


class AdversarySpec:
    """A serializable description of one message adversary.

    Parameters
    ----------
    family:
        A name registered via :func:`register_family`.
    params:
        JSON-able parameters of the family (validated eagerly: anything
        ``json.dumps`` rejects is rejected here).
    seed:
        Sampling seed for randomized families; those families require it,
        deterministic families reject it.

    Examples
    --------
    >>> spec = AdversarySpec("santoro-widmayer", {"n": 3, "losses": 1})
    >>> spec.build().name
    'SantoroWidmayer(n=3, losses=1)'
    >>> AdversarySpec.from_dict(spec.to_dict()) == spec
    True
    """

    __slots__ = ("family", "params", "seed", "_canonical")

    def __init__(
        self,
        family: str,
        params: Mapping[str, Any] | None = None,
        seed: int | None = None,
    ) -> None:
        if not isinstance(family, str):
            raise AdversaryError(f"spec family must be a string, got {family!r}")
        if family not in _REGISTRY:
            raise AdversaryError(
                f"unknown adversary family {family!r}; registered: "
                f"{', '.join(families())}"
            )
        entry = _REGISTRY[family]
        if seed is not None and not isinstance(seed, int):
            raise AdversaryError("spec seed must be an int (or None)")
        if entry.requires_seed and seed is None:
            raise AdversaryError(f"family {family!r} requires a seed")
        if params is not None and not isinstance(params, Mapping):
            raise AdversaryError(
                f"spec params must be a mapping (or None), "
                f"got {type(params).__name__}"
            )
        self.family = family
        self.params = {} if params is None else dict(params)
        self.seed = seed
        # Every accepted name and seed reaches ``cache_key``: one that the
        # builder ignores would store the same verdict under another key.
        if entry.required is not None:
            if seed is not None and not entry.requires_seed:
                raise AdversaryError(f"family {family!r} takes no seed")
            unknown = self.params.keys() - entry.allowed
            if unknown:
                raise AdversaryError(
                    f"unknown param(s) {', '.join(sorted(map(repr, unknown)))} "
                    f"for family {family!r}; it takes "
                    f"{', '.join(sorted(entry.allowed))}"
                )
            missing = entry.required - self.params.keys()
            if missing:
                raise AdversaryError(
                    f"family {family!r} needs param(s) {', '.join(sorted(missing))}"
                )
        # Checked here, not in the build: a worker would fail on them with
        # whatever error the builder happens to hit first.
        for name, (low, high) in entry.int_ranges.items():
            if name not in self.params:
                continue
            value = self.params[name]
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < low
                or (high is not None and value > high)
            ):
                bound = f">= {low}" if high is None else f"in {low}..{high}"
                raise AdversaryError(
                    f"family {family!r} needs param {name!r} to be an int "
                    f"{bound}, got {value!r}"
                )
        try:
            self._canonical = json.dumps(
                {"family": family, "params": self.params, "seed": seed},
                sort_keys=True,
            )
        except (TypeError, ValueError) as exc:
            raise AdversaryError(
                f"spec params for {family!r} are not JSON-serializable: {exc}"
            ) from None
        related = _RELATED_PARAM_CHECKS.get(family)
        if related is not None:
            related(family, self.params)

    def build(self) -> MessageAdversary:
        """Reconstruct the adversary this spec describes."""
        entry = _REGISTRY[self.family]
        rng = random.Random(self.seed) if entry.requires_seed else None
        return entry.builder(self.params, rng)

    def to_dict(self) -> dict[str, Any]:
        return {"family": self.family, "params": dict(self.params), "seed": self.seed}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdversarySpec":
        """Inverse of :meth:`to_dict`; malformed input raises
        :class:`~repro.errors.AdversaryError`."""
        if not isinstance(data, Mapping):
            raise AdversaryError(f"a spec must be a mapping, got {type(data).__name__}")
        if "family" not in data:
            raise AdversaryError("a spec needs a 'family'")
        return cls(data["family"], data.get("params"), data.get("seed"))

    @classmethod
    def from_adversary(cls, adversary: MessageAdversary) -> "AdversarySpec":
        """Derive a spec from a live adversary, where a faithful one exists.

        Oblivious, eventually-forever, and stabilizing adversaries are
        fully described by their graph sets (plus window), so they
        round-trip exactly — including the name.  Other adversary types
        (explicit safety/Büchi tables, combinators) have no canonical
        JSON form and raise; build them from a registered family instead.
        """
        if type(adversary) is ObliviousAdversary:
            return cls(
                "oblivious",
                {
                    "n": adversary.n,
                    "graphs": _keys_of(adversary.graphs),
                    "name": adversary.name,
                },
            )
        if type(adversary) is EventuallyForeverAdversary:
            return cls(
                "eventually-forever",
                {
                    "n": adversary.n,
                    "base": _keys_of(adversary.base),
                    "eventual": _keys_of(adversary.eventual),
                    "name": adversary.name,
                },
            )
        if type(adversary) is StabilizingAdversary:
            return cls(
                "stabilizing",
                {
                    "n": adversary.n,
                    "graphs": _keys_of(adversary.graphs),
                    "window": adversary.window,
                    "require_rooted": all(g.is_rooted for g in adversary.graphs),
                    "name": adversary.name,
                },
            )
        raise AdversaryError(
            f"cannot derive a serializable spec from {type(adversary).__name__}"
            f" {adversary.name!r}; construct it from a registered family"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdversarySpec):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)

    def __repr__(self) -> str:
        seed = f", seed={self.seed}" if self.seed is not None else ""
        return f"AdversarySpec({self.family!r}, {self.params!r}{seed})"


def build_adversary(data: Mapping[str, Any] | AdversarySpec) -> MessageAdversary:
    """Build an adversary from a spec or its dict form (manifest helper)."""
    spec = data if isinstance(data, AdversarySpec) else AdversarySpec.from_dict(data)
    return spec.build()


# --------------------------------------------------------------------- #
# Built-in families
# --------------------------------------------------------------------- #


def _build_oblivious(params: Mapping[str, Any], rng: random.Random | None) -> MessageAdversary:
    n = params["n"]
    return ObliviousAdversary(
        n, _graphs_from_keys(n, params["graphs"]), name=params.get("name")
    )


def _build_two_process(params: Mapping[str, Any], rng: random.Random | None) -> MessageAdversary:
    return two_process_oblivious_family()[params["index"]]


def _build_santoro_widmayer(params: Mapping[str, Any], rng: random.Random | None) -> MessageAdversary:
    return santoro_widmayer_family(params["n"], params["losses"])


_HEARD_OF = {
    "kernel": nonempty_kernel_adversary,
    "no-split": no_split_adversary,
    "rooted": rooted_adversary,
}


def _build_heard_of(params: Mapping[str, Any], rng: random.Random | None) -> MessageAdversary:
    predicate = params["predicate"]
    if predicate == "min-degree":
        return min_degree_adversary(params["n"], params["k"])
    return _HEARD_OF[predicate](params["n"])


def _build_named(params: Mapping[str, Any], rng: random.Random | None) -> MessageAdversary:
    name = params["name"]
    try:
        return NAMED_ADVERSARIES[name]()
    except KeyError:
        raise AdversaryError(
            f"unknown named adversary {name!r}; choose from "
            f"{sorted(NAMED_ADVERSARIES)}"
        ) from None


def _build_eventually_forever(params: Mapping[str, Any], rng: random.Random | None) -> MessageAdversary:
    n = params["n"]
    return EventuallyForeverAdversary(
        n,
        _graphs_from_keys(n, params["base"]),
        _graphs_from_keys(n, params["eventual"]),
        name=params.get("name"),
    )


def _build_stabilizing(params: Mapping[str, Any], rng: random.Random | None) -> MessageAdversary:
    n = params["n"]
    return StabilizingAdversary(
        n,
        _graphs_from_keys(n, params["graphs"]),
        window=params["window"],
        require_rooted=params.get("require_rooted", True),
        name=params.get("name"),
    )


def _build_random_rooted(params: Mapping[str, Any], rng: random.Random) -> MessageAdversary:
    return random_oblivious_adversary(
        rng,
        params["n"],
        size=params["size"],
        rooted_only=True,
        p=params.get("p", 0.4),
    )


def _build_random_oblivious(params: Mapping[str, Any], rng: random.Random) -> MessageAdversary:
    return random_oblivious_adversary(
        rng,
        params["n"],
        size=params["size"],
        rooted_only=params.get("rooted_only", False),
        p=params.get("p", 0.4),
    )


#: Every family's process count: an adversary needs at least one process.
_N_RANGE = {"n": (1, None)}


def _check_graph_keys(
    family: str, params: Mapping[str, Any], lists: Mapping[str, bool]
) -> None:
    """Refuse a graph-key list that does not encode graphs on ``n`` nodes.

    ``lists`` maps each param that holds packed edge keys
    (:attr:`~repro.core.digraph.Digraph.key`) to whether the family's
    builder needs it nonempty.  A key must be an int (a bool is not) in
    ``0 .. 2**(n*n) - 1`` with no self-loop bit.  Bit ``u * n + u`` is bit
    ``u * (n + 1)``, so the self-loop test steps through the key's length
    in strides of ``n + 1`` and costs nothing for a huge ``n``.
    """
    n = params["n"]
    for name, nonempty in lists.items():
        if name not in params:
            continue
        keys = params[name]
        if not isinstance(keys, list):
            raise AdversaryError(
                f"family {family!r} needs param {name!r} to be a list of graph "
                f"keys, got {keys!r}"
            )
        if nonempty and not keys:
            raise AdversaryError(
                f"family {family!r} needs param {name!r} to hold at least one "
                f"graph key"
            )
        for key in keys:
            if isinstance(key, bool) or not isinstance(key, int):
                raise AdversaryError(
                    f"family {family!r} param {name!r} holds key {key!r}, "
                    f"which is not an int"
                )
            if key < 0 or key >> (n * n):
                raise AdversaryError(
                    f"family {family!r} param {name!r} holds key {key}, outside "
                    f"0 .. 2**{n * n} - 1 for n={n}"
                )
            loops = [b for b in range(0, key.bit_length(), n + 1) if key >> b & 1]
            if loops:
                raise AdversaryError(
                    f"family {family!r} param {name!r} holds key {key}, which "
                    f"sets the self-loop bit of node {loops[0] // (n + 1)}"
                )


def _check_losses(family: str, params: Mapping[str, Any]) -> None:
    """Refuse a loss bound above the ``n(n-1)`` messages of a round.

    Any larger bound builds the adversary of ``n(n-1)``: accepting it
    would cache one verdict under many keys.
    """
    n, losses = params["n"], params["losses"]
    if losses > n * (n - 1):
        raise AdversaryError(
            f"family {family!r} needs param 'losses' to be at most "
            f"n(n-1) = {n * (n - 1)}, got {losses}"
        )


def _check_heard_of(family: str, params: Mapping[str, Any]) -> None:
    """Refuse an unknown predicate, and a ``k`` that the predicate ignores,
    or that ``min-degree`` lacks or cannot meet (``k`` above ``n``).

    An ignored ``k`` would cache the verdict of the adversary without it
    under another key.
    """
    predicate = params["predicate"]
    predicates = (*_HEARD_OF, "min-degree")
    if predicate not in predicates:
        raise AdversaryError(
            f"family {family!r} needs param 'predicate' to be one of "
            f"{', '.join(predicates)}, got {predicate!r}"
        )
    if predicate != "min-degree" and "k" in params:
        raise AdversaryError(
            f"family {family!r} takes param 'k' only with predicate "
            f"'min-degree', not {predicate!r}"
        )
    if predicate == "min-degree" and "k" not in params:
        raise AdversaryError(
            f"family {family!r} needs param 'k' with predicate 'min-degree'"
        )
    if predicate == "min-degree" and params["k"] > params["n"]:
        raise AdversaryError(
            f"family {family!r} needs param 'k' to be in 1..n = "
            f"1..{params['n']}, got {params['k']}"
        )


#: Decode-time checks of the built-in families that relate a param to
#: ``n`` or to another param.  They run last, after the names, the integer
#: ranges (so ``n`` is an int >= 1 by then) and the JSON check.
_RELATED_PARAM_CHECKS: dict[str, Callable[[str, Mapping[str, Any]], None]] = {
    "oblivious": partial(_check_graph_keys, lists={"graphs": True}),
    "stabilizing": partial(_check_graph_keys, lists={"graphs": True}),
    "eventually-forever": partial(
        _check_graph_keys, lists={"base": False, "eventual": True}
    ),
    "santoro-widmayer": _check_losses,
    "heard-of": _check_heard_of,
}

register_family(
    "oblivious",
    _build_oblivious,
    required=("n", "graphs"),
    optional=("name",),
    int_ranges=_N_RANGE,
)
# The 15 members of two_process_oblivious_family(): the nonempty subsets of
# the four two-process graphs.
register_family(
    "two-process",
    _build_two_process,
    required=("index",),
    int_ranges={"index": (0, 14)},
)
register_family(
    "santoro-widmayer",
    _build_santoro_widmayer,
    required=("n", "losses"),
    int_ranges={**_N_RANGE, "losses": (0, None)},
)
register_family(
    "heard-of",
    _build_heard_of,
    required=("n", "predicate"),
    optional=("k",),
    int_ranges={**_N_RANGE, "k": (1, None)},
)
register_family("named", _build_named, required=("name",))
register_family(
    "eventually-forever",
    _build_eventually_forever,
    required=("n", "base", "eventual"),
    optional=("name",),
    int_ranges=_N_RANGE,
)
register_family(
    "stabilizing",
    _build_stabilizing,
    required=("n", "graphs", "window"),
    optional=("require_rooted", "name"),
    int_ranges={**_N_RANGE, "window": (1, None)},
)
register_family(
    "random-rooted",
    _build_random_rooted,
    requires_seed=True,
    required=("n", "size"),
    optional=("p",),
    int_ranges={**_N_RANGE, "size": (1, None)},
)
register_family(
    "random-oblivious",
    _build_random_oblivious,
    requires_seed=True,
    required=("n", "size"),
    optional=("rooted_only", "p"),
    int_ranges={**_N_RANGE, "size": (1, None)},
)


def random_rooted_specs(
    seed: int,
    n: int,
    samples: int,
    sizes: tuple[int, ...] = (1, 2, 3),
    p: float = 0.4,
) -> list[AdversarySpec]:
    """``samples`` seeded random-rooted specs, derived from one master seed.

    A master ``random.Random(seed)`` draws each sample's alphabet size and
    an independent 63-bit sub-seed; each spec then owns its sub-seed, so a
    single sample can be rebuilt on any worker without replaying the
    stream.  The whole list is a pure function of ``(seed, n, samples,
    sizes, p)`` — the property the backend-equivalence tests pin down.
    """
    master = random.Random(seed)
    sizes = tuple(sizes)
    return [
        AdversarySpec(
            "random-rooted",
            {"n": n, "size": master.choice(sizes), "p": p},
            seed=master.getrandbits(63),
        )
        for _ in range(samples)
    ]
