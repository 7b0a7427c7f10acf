"""Domain names.

A name is a tuple of its labels, stored in lowercase (the DNS is
case-insensitive for matching, RFC 1035 §2.3.3).  The empty tuple is the
root.  A :class:`Name` is always absolute: ``Name("www.example.com")`` and
``Name("www.example.com.")`` denote the same fully-qualified name.

The class implements the relationships the paper's analysis needs:

- subdomain / superdomain tests,
- *bailiwick* tests (RFC 8499: a server name is *in bailiwick* of a zone when
  it is subordinate to the zone's origin, e.g. ``ns.example.org`` is in
  bailiwick of ``example.org``),
- parent traversal and label slicing, and
- canonical DNS ordering (RFC 4034 §6.1), used for deterministic output.

Construction is *interned*: every label tuple maps to one canonical
instance, so equal names are usually the same object (``==`` short-circuits
on identity) and the simulator's hottest call — re-parsing the same handful
of query names millions of times — collapses to a dict probe.  The intern
tables are bounded (:data:`_INTERN_MAX` entries each) and simply reset when
full; a name that outlives a reset stays valid, it just stops being the
canonical instance for its labels, which only costs the identity fast path.
"""

from __future__ import annotations

from typing import Iterable

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255

#: Bound on each intern table.  Paper campaigns use a few hundred distinct
#: names; 4096 keeps even crawl-scale universes fully interned while capping
#: worst-case memory for adversarial inputs (wire decode of hostile blobs).
_INTERN_MAX = 4096

#: Canonical instance per label tuple.
_INTERN: dict[tuple[str, ...], "Name"] = {}

#: Parse memo: raw constructor text -> canonical instance.  Keyed by the
#: *unnormalized* text so the hot path skips rstrip/split/lower entirely.
_TEXT_INTERN: dict[str, "Name"] = {}


class NameError_(ValueError):
    """Raised for syntactically invalid domain names.

    Named with a trailing underscore to avoid shadowing the builtin
    ``NameError``.
    """


def _validate_label(label: str) -> str:
    if not label:
        raise NameError_("empty label (consecutive dots?)")
    if len(label) > MAX_LABEL_LENGTH:
        raise NameError_(f"label too long ({len(label)} > {MAX_LABEL_LENGTH}): {label!r}")
    try:
        label.encode("ascii")
    except UnicodeEncodeError as exc:
        raise NameError_(f"non-ASCII label (IDNA is out of scope): {label!r}") from exc
    return label.lower()


def _check_wire_length(labels: tuple[str, ...]) -> None:
    # +1 per label for the length octet, +1 for the root's null label.
    wire_length = sum(len(lab) + 1 for lab in labels) + 1
    if wire_length > MAX_NAME_LENGTH:
        raise NameError_(f"name too long ({wire_length} > {MAX_NAME_LENGTH} octets)")


def _interned_name(labels: tuple[str, ...]) -> "Name":
    """Pickle entry point: route unpickled names through the intern table.

    Shard workers ship Names across process boundaries; resolving through
    the table keeps the identity fast path intact after a merge.
    """
    return Name.from_labels(labels)


class Name(tuple):
    """An absolute domain name: the tuple of its lowercase labels, most
    significant last (``('www', 'example', 'com')``).

    Hashing, ``len``, iteration, indexing and ``in`` are tuple's own C
    slots, so a dict probe keyed on a name runs no Python code.  Ordering
    is canonical (RFC 4034 §6.1), not tuple order.

    >>> n = Name("WWW.Example.COM.")
    >>> str(n)
    'www.example.com.'
    >>> n.is_subdomain_of(Name("example.com"))
    True
    """

    # Lazily built per-instance caches.  A tuple subclass cannot have
    # non-empty ``__slots__``; an instance ``__dict__`` only comes into
    # being on the first write, so names never walked or encoded pay
    # nothing for them.
    _wire: tuple[tuple[tuple[str, ...], bytes], ...] | None = None
    _lineage: tuple["Name", ...] | None = None

    def __new__(cls, text: str | Iterable[str] | "Name" = "") -> "Name":
        if type(text) is Name:
            return text
        if isinstance(text, str):
            cached = _TEXT_INTERN.get(text)
            if cached is not None:
                return cached
            stripped = text.rstrip(".")
            if stripped:
                labels = tuple(_validate_label(lab) for lab in stripped.split("."))
            else:
                labels = ()
            _check_wire_length(labels)
            name = _intern(labels)
            if len(_TEXT_INTERN) >= _INTERN_MAX:
                _TEXT_INTERN.clear()
            _TEXT_INTERN[text] = name
            return name
        labels = tuple(_validate_label(lab) for lab in text)
        _check_wire_length(labels)
        return _intern(labels)

    @classmethod
    def from_labels(cls, labels: tuple[str, ...]) -> "Name":
        """Trusted constructor: ``labels`` are already validated and lowercase.

        Used by :meth:`parent`/:meth:`lineage`/:meth:`split` (slices of a
        validated name) and by wire decode (which enforces the wire-format
        limits itself), skipping per-label re-validation.
        """
        cached = _INTERN.get(labels)
        if cached is not None:
            return cached
        return _intern(labels)

    # -- immutability -------------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Name is immutable")

    def __reduce__(self) -> tuple:
        # Rebuild through the intern table, so unpickled and copied names
        # are canonical instances.
        return (_interned_name, (tuple(self),))

    # -- accessors -----------------------------------------------------------
    @property
    def labels(self) -> tuple[str, ...]:
        """The labels as a plain tuple (``('www', 'example', 'com')``)."""
        return tuple(self)

    @property
    def is_root(self) -> bool:
        return not self

    def wire_labels(self) -> tuple[tuple[tuple[str, ...], bytes], ...]:
        """Per label, what the wire writer needs: the label tuple from that
        label to the root (the compression-table key) and the label's
        length-prefixed octets.  Built on first use and kept."""
        wire = self._wire
        if wire is None:
            wire = tuple(
                (self[index:], bytes((len(label),)) + label.encode("ascii"))
                for index, label in enumerate(self)
            )
            object.__setattr__(self, "_wire", wire)
        return wire

    def __str__(self) -> str:
        if not self:
            return "."
        return ".".join(self) + "."

    def to_text(self) -> str:
        """The absolute presentation form, always with the trailing dot."""
        return str(self)

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    # -- equality and ordering ------------------------------------------------
    # Equality is label equality: a name equals its presentation text and,
    # through tuple's own ``__eq__``, a plain tuple of the same labels (which
    # also hashes alike).  Ordering against a name or a label tuple is
    # canonical: labels compared right to left, absence of a label sorting
    # before any label value.  All four comparisons are defined here, since
    # tuple's left-to-right ones would otherwise be inherited.
    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        if self is other:  # interning makes this the common case
            return True
        if isinstance(other, str):
            try:
                other = Name(other)
            except NameError_:
                return False
        return tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __lt__(self, other: tuple) -> bool:
        if isinstance(other, tuple):
            return self[::-1] < other[::-1]
        return NotImplemented

    def __le__(self, other: tuple) -> bool:
        if isinstance(other, tuple):
            return self[::-1] <= other[::-1]
        return NotImplemented

    def __gt__(self, other: tuple) -> bool:
        if isinstance(other, tuple):
            return self[::-1] > other[::-1]
        return NotImplemented

    def __ge__(self, other: tuple) -> bool:
        if isinstance(other, tuple):
            return self[::-1] >= other[::-1]
        return NotImplemented

    # -- construction helpers --------------------------------------------------
    def concatenate(self, suffix: "Name") -> "Name":
        """Return ``self`` + ``suffix``, e.g. ``ns1`` under ``example.com``."""
        labels = self + suffix
        _check_wire_length(labels)
        return Name.from_labels(labels)

    def prepend(self, label: str) -> "Name":
        """Return a new name with ``label`` added at the left."""
        labels = (_validate_label(label),) + self
        _check_wire_length(labels)
        return Name.from_labels(labels)

    def parent(self) -> "Name":
        """The name with the leftmost label removed.

        >>> Name("www.example.com").parent()
        Name('example.com.')
        """
        if not self:
            raise NameError_("the root has no parent")
        return Name.from_labels(self[1:])

    def lineage(self) -> tuple["Name", ...]:
        """``(self, parent, ..., root)``: the name and every ancestor,
        nearest first.  Built on first use and kept, so the walks that
        look for the deepest enclosing zone or zone cut — one per referral
        step, one per authoritative query — cost a tuple iteration, not a
        slice, an intern probe and a new-name check per label.

        >>> [str(a) for a in Name("a.b.c").lineage()]
        ['a.b.c.', 'b.c.', 'c.', '.']
        """
        lineage = self._lineage
        if lineage is None:
            lineage = (self,) + tuple(
                Name.from_labels(self[index:]) for index in range(1, len(self) + 1)
            )
            object.__setattr__(self, "_lineage", lineage)
        return lineage

    def split(self, depth: int) -> tuple["Name", "Name"]:
        """Split into (prefix, suffix) where the suffix keeps ``depth`` labels.

        >>> Name("www.example.com").split(2)
        (Name('www.'), Name('example.com.'))
        """
        if depth < 0 or depth > len(self):
            raise NameError_(f"cannot keep {depth} labels of {self}")
        cut = len(self) - depth
        return Name.from_labels(self[:cut]), Name.from_labels(self[cut:])

    # -- relationships ----------------------------------------------------------
    def is_subdomain_of(self, other: "Name") -> bool:
        """True when ``self`` equals ``other`` or lies beneath it.

        Every name is a subdomain of the root and of itself.
        """
        if not other:  # the root
            return True
        # A shorter self yields a slice that cannot equal the suffix.  Both
        # sides are plain tuples, so the comparison stays in C.
        return self[-len(other):] == other[:]

    def in_bailiwick_of(self, zone_origin: "Name") -> bool:
        """RFC 8499 bailiwick test: is this name at/under ``zone_origin``?

        The paper's §4 experiments hinge on this distinction:
        ``ns1.sub.cachetest.net`` is in bailiwick of ``sub.cachetest.net``
        (glue required), while ``ns1.zurrundedu.com`` is out of bailiwick of
        ``sub.cachetest.net`` (the resolver must resolve the server name
        independently).
        """
        return self.is_subdomain_of(zone_origin)


def _intern(labels: tuple[str, ...]) -> Name:
    """Create (or fetch) the canonical instance for ``labels``."""
    cached = _INTERN.get(labels)
    if cached is not None:
        return cached
    name = tuple.__new__(Name, labels)
    if len(_INTERN) >= _INTERN_MAX:
        _INTERN.clear()
    _INTERN[labels] = name
    return name


#: The root name (``.``).
root = Name("")
