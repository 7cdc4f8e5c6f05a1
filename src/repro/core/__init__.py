"""The paper's contribution: identities, rights, ACLs, and the identity box."""

from .acl import ACL_FILE_NAME, Acl, AclEntry, AclError
from .aclfs import AccessDecision, AclPolicy
from .audit import AuditLog, AuditRecord
from .box import DEFAULT_BOXES_ROOT, IdentityBox, identity_box_run
from .identity import (
    IdentityError,
    KNOWN_METHODS,
    Principal,
    identity_matches,
    is_pattern,
    mangle_for_path,
    validate_identity,
)
from .ops import CACHEABLE_OPS, MUTATING_OPS, OP_PATH_SPECS, OpRegistry, OpSpec, PathArg
from .pipeline import (
    Admission,
    AuditSink,
    BoundPath,
    DenialCounter,
    Operation,
    Pipeline,
    ReadCache,
    build_pipeline,
)
from .passwd import (
    create_private_passwd,
    lookup_name_by_uid,
    passwd_entry_for,
    passwd_name_for,
)
from .rights import RIGHT_LETTERS, Rights, RightsError
from .telemetry import (
    Histogram,
    LatencyStats,
    Span,
    Telemetry,
    TracingInterceptor,
    format_trace_parent,
    instrument,
    parse_trace_parent,
)

__all__ = [
    "ACL_FILE_NAME",
    "AccessDecision",
    "Acl",
    "AclEntry",
    "AclError",
    "AclPolicy",
    "Admission",
    "AuditLog",
    "AuditRecord",
    "AuditSink",
    "BoundPath",
    "CACHEABLE_OPS",
    "DEFAULT_BOXES_ROOT",
    "DenialCounter",
    "Histogram",
    "IdentityBox",
    "IdentityError",
    "KNOWN_METHODS",
    "LatencyStats",
    "MUTATING_OPS",
    "OP_PATH_SPECS",
    "OpRegistry",
    "OpSpec",
    "Operation",
    "PathArg",
    "Pipeline",
    "Principal",
    "RIGHT_LETTERS",
    "ReadCache",
    "Rights",
    "RightsError",
    "Span",
    "Telemetry",
    "TracingInterceptor",
    "build_pipeline",
    "create_private_passwd",
    "format_trace_parent",
    "identity_box_run",
    "identity_matches",
    "instrument",
    "is_pattern",
    "lookup_name_by_uid",
    "mangle_for_path",
    "parse_trace_parent",
    "passwd_entry_for",
    "passwd_name_for",
    "validate_identity",
]
