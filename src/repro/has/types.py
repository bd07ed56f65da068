"""Type system for artifact variables and attributes.

The HAS* model distinguishes two kinds of values (Section 2 of the paper):

* *data values* drawn from the infinite domain ``DOM_val`` -- modelled by
  :class:`ValueType`;
* *identifiers* drawn from per-relation infinite domains ``Dom(R.ID)`` --
  modelled by :class:`IdType`, which records the relation whose IDs the
  variable or attribute ranges over.

Both kinds of variables may additionally hold the special constant ``null``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class ValueType:
    """The type of non-id variables and non-key attributes (``DOM_val``)."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "ValueType()"

    def __str__(self) -> str:
        return "value"


@dataclass(frozen=True)
class IdType:
    """The type of id variables / key and foreign-key attributes.

    ``IdType("CUSTOMERS")`` is the type of identifiers of the ``CUSTOMERS``
    relation, i.e. the domain ``Dom(CUSTOMERS.ID)`` of the paper.
    """

    relation: str

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"IdType({self.relation!r})"

    def __str__(self) -> str:
        return f"{self.relation}.ID"


VarType = Union[ValueType, IdType]

VALUE = ValueType()


def is_id_type(var_type: VarType) -> bool:
    """Return ``True`` when *var_type* is an :class:`IdType`."""
    return isinstance(var_type, IdType)
