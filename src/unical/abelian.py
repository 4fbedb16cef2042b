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
from operator import attrgetter, itemgetter
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

_GENERATOR = itemgetter(0)

Entries = Union[Mapping[Any, int], Iterable[tuple[Any, int]]]


class Immutable:
    """Base of the package's value classes: attributes cannot be set or deleted.

    Subclasses list their slots in `__slots__` and set them in `__init__`
    through `object.__setattr__`. `_fields`, by default the class's own
    `__slots__`, names the slots that make up the value; the others, such
    as caches, take no part. Records are equal when of the same class with
    equal fields, hash by their fields and print as `Name(field=value, ...)`;
    a subclass whose fields are mapping views writes its own `__hash__`.
    Copying returns the record itself: nothing in it can change.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _values: Callable[[Any], Any]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(cls.__dict__.get("__slots__", ()))
        # Over one field the getter returns the bare value, which serves as well.
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({inner})"

    def __copy__(self) -> "Immutable":
        return self

    def __deepcopy__(self, memo: dict) -> "Immutable":
        return self

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
        # Exact-type tests first: they are cheaper than the ABC and bool checks.
        if type(entries) is dict or type(entries) is ExponentMap or isinstance(entries, Mapping):
            entries = entries.items()
        acc: dict[Any, int] = {}
        for generator, exponent in entries:
            if type(exponent) is not int and (isinstance(exponent, bool) or not isinstance(exponent, int)):
                raise TypeError(f"exponent must be an integer, got {exponent!r}")
            total = acc.get(generator, 0) + exponent
            if total:
                acc[generator] = total
            elif generator in acc:
                del acc[generator]
        pairs = acc.items()
        object.__setattr__(self, "_entries", tuple(sorted(pairs, key=_GENERATOR) if len(acc) > 1 else pairs))

    @classmethod
    def _canonical(cls, entries: tuple[tuple[Any, int], ...]) -> "ExponentMap":
        """A map over pairs that are already canonical, taken as they are.

        The caller guarantees what the constructor would establish: the
        generators are distinct and in ascending order, and every
        exponent is a nonzero int. Nothing is checked.
        """
        built = object.__new__(cls)
        object.__setattr__(built, "_entries", entries)
        return built

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
        return map(_GENERATOR, self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, generator: Any) -> bool:
        for candidate, _ in self._entries:
            if candidate == generator:
                return True
        return False

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


_EMPTY = ExponentMap()


def em_empty() -> ExponentMap:
    """The group identity: the map with empty support."""
    return _EMPTY


def em_delta(generator: Any) -> ExponentMap:
    """The generator itself as a group element (exponent one)."""
    return ExponentMap._canonical(((generator, 1),))


def em_mul(f: ExponentMap, g: ExponentMap) -> ExponentMap:
    if not f:
        return g
    if not g:
        return f
    return ExponentMap(f.items() + g.items())


def em_inv(f: ExponentMap) -> ExponentMap:
    return ExponentMap._canonical(tuple([(generator, -exponent) for generator, exponent in f.items()]))


def em_pow(f: ExponentMap, exponent: int) -> ExponentMap:
    if isinstance(exponent, bool) or not isinstance(exponent, int):
        raise TypeError(f"exponent must be an integer, got {exponent!r}")
    if exponent == 0:
        return _EMPTY
    # Nonzero times nonzero stays nonzero, and the generators keep their order.
    return ExponentMap._canonical(tuple([(generator, z * exponent) for generator, z in f.items()]))


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
