"""Free abelian groups presented as finitely supported exponent maps.

A group element is a map from generators to nonzero integers with finite
support, written multiplicatively: the element maps each generator to the
exponent it carries. Generators only need to be hashable and totally
ordered among themselves, so maps nest freely; an ExponentMap can itself
serve as a generator of another group, which is what makes flattening and
generic evaluation possible.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import total_ordering
from typing import Any, Callable, Generic, Iterable, Iterator, TypeVar, Union

__all__ = [
    "ExponentMap",
    "GroupInterface",
    "MAP_GROUP",
    "em_empty",
    "em_delta",
    "em_mul",
    "em_inv",
    "em_pow",
    "em_map",
    "em_flatten",
    "em_eval",
    "em_factors",
]

T = TypeVar("T")

Entries = Union[Mapping[Any, int], Iterable[tuple[Any, int]]]


class Immutable:
    """Base of the package's value classes: attributes cannot be set or deleted.

    Subclasses list their fields in `__slots__`, set them in `__init__`
    through `object.__setattr__`, and write their own `__eq__`,
    `__hash__` and `__repr__` over exactly those fields.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


@total_ordering
class ExponentMap(Immutable):
    """Immutable finitely supported map from generators to nonzero integers.

    The constructor accepts a mapping or an iterable of (generator,
    exponent) pairs; repeated generators have their exponents summed and
    zero totals are dropped, so every constructed value is in canonical
    form. Equality, hashing, and ordering all work on that canonical form.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Entries = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict[Any, int] = {}
        for generator, exponent in items:
            if isinstance(exponent, bool) or not isinstance(exponent, int):
                raise TypeError(f"exponent must be an integer, got {exponent!r}")
            total = acc.get(generator, 0) + exponent
            if total:
                acc[generator] = total
            elif generator in acc:
                del acc[generator]
        object.__setattr__(self, "_entries", tuple(sorted(acc.items(), key=lambda kv: kv[0])))

    def items(self) -> tuple[tuple[Any, int], ...]:
        """Canonically ordered (generator, exponent) pairs."""
        return self._entries

    def support(self) -> tuple[Any, ...]:
        return tuple(generator for generator, _ in self._entries)

    def exponent(self, generator: Any) -> int:
        """Exponent carried by `generator`, zero when outside the support."""
        for candidate, value in self._entries:
            if candidate == generator:
                return value
        return 0

    def __iter__(self) -> Iterator[Any]:
        return (generator for generator, _ in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, generator: Any) -> bool:
        return any(candidate == generator for candidate, _ in self._entries)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ExponentMap):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __lt__(self, other: "ExponentMap") -> bool:
        if not isinstance(other, ExponentMap):
            return NotImplemented
        return self._entries < other._entries

    def __mul__(self, other: "ExponentMap") -> "ExponentMap":
        if not isinstance(other, ExponentMap):
            return NotImplemented
        return em_mul(self, other)

    def __pow__(self, exponent: int) -> "ExponentMap":
        return em_pow(self, exponent)

    def __repr__(self) -> str:
        inner = ", ".join(f"{generator!r}: {exponent}" for generator, exponent in self._entries)
        return "ExponentMap({%s})" % inner


class GroupInterface(Immutable, Generic[T]):
    """An abelian group given by its operations.

    `combine` is the binary operation, `invert` the inverse, `neutral` the
    identity element. Used to evaluate exponent maps in arbitrary target
    groups without committing to a representation.
    """

    __slots__ = ("combine", "invert", "neutral")

    def __init__(self, combine: Callable[[T, T], T], invert: Callable[[T], T], neutral: T):
        object.__setattr__(self, "combine", combine)
        object.__setattr__(self, "invert", invert)
        object.__setattr__(self, "neutral", neutral)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.combine, self.invert, self.neutral) == (other.combine, other.invert, other.neutral)

    def __hash__(self) -> int:
        return hash((self.combine, self.invert, self.neutral))

    def __repr__(self) -> str:
        return f"GroupInterface(combine={self.combine!r}, invert={self.invert!r}, neutral={self.neutral!r})"


_EMPTY = ExponentMap()


def em_empty() -> ExponentMap:
    """The group identity: the map with empty support."""
    return _EMPTY


def em_delta(generator: Any) -> ExponentMap:
    """The generator itself as a group element (exponent one)."""
    return ExponentMap(((generator, 1),))


def em_mul(f: ExponentMap, g: ExponentMap) -> ExponentMap:
    if not f:
        return g
    if not g:
        return f
    return ExponentMap(f.items() + g.items())


def em_inv(f: ExponentMap) -> ExponentMap:
    return ExponentMap((generator, -exponent) for generator, exponent in f.items())


def em_pow(f: ExponentMap, exponent: int) -> ExponentMap:
    if isinstance(exponent, bool) or not isinstance(exponent, int):
        raise TypeError(f"exponent must be an integer, got {exponent!r}")
    if exponent == 0:
        return _EMPTY
    return ExponentMap((generator, z * exponent) for generator, z in f.items())


def em_map(fn: Callable[[Any], Any], f: ExponentMap) -> ExponentMap:
    """Apply `fn` to every generator, merging collisions.

    This is the free functor on maps of generating sets: when `fn`
    identifies two generators their exponents are summed, which may cancel
    to nothing.
    """
    return ExponentMap((fn(generator), exponent) for generator, exponent in f.items())


def em_flatten(nested: ExponentMap) -> ExponentMap:
    """Collapse a map whose generators are themselves maps.

    Each inner map is raised to its outer exponent and the results are
    multiplied out, i.e. the multiplication of the free-group monad.
    """
    pairs = []
    for inner, outer in nested.items():
        if not isinstance(inner, ExponentMap):
            raise TypeError(f"em_flatten needs ExponentMap generators, got {inner!r}")
        for generator, exponent in inner.items():
            pairs.append((generator, exponent * outer))
    return ExponentMap(pairs)


def _element_power(group: GroupInterface[T], element: T, exponent: int) -> T:
    if exponent < 0:
        element = group.invert(element)
        exponent = -exponent
    result = group.neutral
    while exponent:
        if exponent & 1:
            result = group.combine(result, element)
        exponent >>= 1
        if exponent:
            element = group.combine(element, element)
    return result


def em_eval(target: GroupInterface[T], f: ExponentMap) -> T:
    """Evaluate a map whose generators are elements of `target`.

    The unique group homomorphism out of the free group: multiply each
    generator raised to its exponent.
    """
    result = target.neutral
    for element, exponent in f.items():
        result = target.combine(result, _element_power(target, element, exponent))
    return result


def em_factors(f: ExponentMap) -> list[tuple[Any, int]]:
    """The canonical factorization as an ordered list of pairs."""
    return list(f.items())


MAP_GROUP: GroupInterface[ExponentMap] = GroupInterface(
    combine=em_mul, invert=em_inv, neutral=_EMPTY
)
