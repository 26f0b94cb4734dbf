"""The program registry: what the session service can serve.

Rules are code, so a service cannot accept programs over the wire — it
is configured at construction with named *program factories*.  A tenant
opens a session naming a registered program.  Registration calls the
factory once and freezes what it builds; every tenant of the entry runs
that one :class:`~repro.core.Program`, whose generated drivers compile
once (:func:`repro.plan.codegen.compiled_for`): a frozen program holds
declarations and code, never run state.  Each tenant's kernel keeps its
own Delta, Gamma, plan cache and statistics, so tenants see none of
each other's tuples, plan hits or notes.

Each entry also fixes the *server-side* execution options and which of
them a tenant may override.  Tenants are untrusted: the overridable set
defaults to the semantics-neutral knobs (``retraction``, ``admission``)
and never includes resource-shaped ones (``strategy``, ``threads``,
``max_steps``) unless the operator lists them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.errors import EngineError, UnknownProgramError
from repro.core.program import ExecOptions, Program

__all__ = ["ProgramEntry", "ProgramRegistry", "DEFAULT_TENANT_KNOBS"]

#: option fields a tenant may set in ``open`` unless the operator says
#: otherwise — the ones that change *what the tenant means*, not what
#: the server spends
DEFAULT_TENANT_KNOBS = frozenset({"retraction", "admission"})
#: no verb, reply or ``stats`` payload reads a tenant's virtual-time
#: report, so an entry registered without options skips its metering,
#: and its tenants fire through generated drivers (tiers change cost,
#: never output)
_TENANT_OPTIONS = ExecOptions(metering="off", execution="codegen")


@dataclass(frozen=True)
class ProgramEntry:
    """One registered program: the frozen program its tenants run +
    server-side options policy."""

    name: str
    program: Program
    options: ExecOptions = _TENANT_OPTIONS
    tenant_knobs: frozenset[str] = DEFAULT_TENANT_KNOBS

    def build_options(self, overrides: dict | None) -> ExecOptions:
        """The entry's options with a tenant's requested overrides
        applied; refuses knobs outside the entry's allowlist.  Invalid
        values surface as the canonical ``ExecOptions`` refusal."""
        if not overrides:
            return self.options
        refused = sorted(set(overrides) - set(self.tenant_knobs))
        if refused:
            raise EngineError(
                f"tenant options {refused} are not overridable for "
                f"program {self.name!r}; allowed: {sorted(self.tenant_knobs)}"
            )
        return self.options.with_(**overrides)


class ProgramRegistry:
    """Name -> :class:`ProgramEntry` with refusal on unknown names."""

    def __init__(self) -> None:
        self._entries: dict[str, ProgramEntry] = {}

    def register(
        self,
        name: str,
        factory: Callable[[], Program],
        options: ExecOptions | None = None,
        tenant_knobs: frozenset[str] | None = None,
    ) -> ProgramEntry:
        if name in self._entries:
            raise EngineError(f"program {name!r} registered twice")
        program = factory()
        program.freeze()
        entry = ProgramEntry(
            name,
            program,
            options if options is not None else _TENANT_OPTIONS,
            tenant_knobs if tenant_knobs is not None else DEFAULT_TENANT_KNOBS,
        )
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> ProgramEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise UnknownProgramError(
                f"program {name!r} is not registered with this service; "
                f"registered: {sorted(self._entries) or 'none'}"
            )
        return entry

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)
