"""The HAS* (Hierarchical Artifact System) model.

This subpackage implements Section 2 and Appendix A of the VERIFAS paper:
database schemas with acyclic foreign keys, quantifier-free first-order
conditions, task schemas with artifact variables and artifact relations,
internal / opening / closing services, artifact systems, concrete instances
and the concrete transition semantics.  :mod:`repro.has.runs` holds a
concrete oracle that searches the concrete local runs for a violating lasso
(used by the test suite for differential testing against the symbolic
verifier); it is not imported here, so the model does not load the
explicit-state checkers.
"""

from repro.has.schema import Attribute, DatabaseSchema, Relation
from repro.has.types import IdType, ValueType, VarType
from repro.has.conditions import (
    And,
    Condition,
    Const,
    Eq,
    FalseCond,
    Neq,
    Not,
    NULL,
    Or,
    RelationAtom,
    Term,
    TrueCond,
    Var,
)
from repro.has.tasks import ArtifactRelation, TaskSchema, Variable
from repro.has.services import (
    ClosingService,
    Insert,
    InternalService,
    OpeningService,
    Retrieve,
    Update,
)
from repro.has.artifact_system import ArtifactSystem, SpecificationError
from repro.has.builder import ArtifactSystemBuilder, TaskBuilder
from repro.has.database import Database
from repro.has.instance import Instance

__all__ = [
    "Attribute",
    "DatabaseSchema",
    "Relation",
    "IdType",
    "ValueType",
    "VarType",
    "Condition",
    "Term",
    "Var",
    "Const",
    "NULL",
    "Eq",
    "Neq",
    "RelationAtom",
    "And",
    "Or",
    "Not",
    "TrueCond",
    "FalseCond",
    "Variable",
    "ArtifactRelation",
    "TaskSchema",
    "InternalService",
    "OpeningService",
    "ClosingService",
    "Insert",
    "Retrieve",
    "Update",
    "ArtifactSystem",
    "SpecificationError",
    "ArtifactSystemBuilder",
    "TaskBuilder",
    "Database",
    "Instance",
]
