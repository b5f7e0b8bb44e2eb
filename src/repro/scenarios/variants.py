"""Session/pipeline variants: the named alternative configurations.

A :class:`SessionVariant` captures every per-session knob the paper's
evaluation flips — measurement framework on/off, GPU time-query
buffering, the two Section-6 optimizations, and slow-motion
benchmarking — as one frozen value.  The :data:`SESSION_VARIANTS`
registry gives the combinations the figures actually use stable *names*
("native", "optimized", "slow_motion", …) so scenarios and serialized
specs never spell out boolean soup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.pictor import PictorConfig
from repro.graphics.pipeline import PipelineConfig
from repro.network.link import LinkSpec
from repro.server.session import SessionConfig

__all__ = ["SESSION_VARIANTS", "SessionVariant", "register_session_variant",
           "session_variant", "variant_name"]


@dataclass(frozen=True)
class SessionVariant:
    """The declarative per-session configuration of one testbed run."""

    measurement_enabled: bool = True
    double_buffered_queries: bool = True
    memoize_window_attributes: bool = False
    two_step_frame_copy: bool = False
    slow_motion: bool = False

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(
            measurement_enabled=self.measurement_enabled,
            double_buffered_queries=self.double_buffered_queries,
            memoize_window_attributes=self.memoize_window_attributes,
            two_step_frame_copy=self.two_step_frame_copy,
        )

    def session_config(self, link: Optional[LinkSpec] = None) -> SessionConfig:
        """The per-session configuration this variant describes."""
        if link is None:
            return SessionConfig(pipeline=self.pipeline_config(),
                                 slow_motion=self.slow_motion)
        return SessionConfig(pipeline=self.pipeline_config(), link=link,
                             slow_motion=self.slow_motion)

    def pictor_config(self) -> PictorConfig:
        return PictorConfig(
            measurement_enabled=self.measurement_enabled,
            double_buffered_queries=self.double_buffered_queries,
        )

    @staticmethod
    def optimized(keys=None) -> "SessionVariant":
        """The variant with the selected Section-6 optimizations enabled.

        Keys and their configuration fields come from the optimization
        registry (:data:`repro.optimizations.OPTIMIZATIONS`), so the
        scenario path and the legacy ``apply_optimizations`` path cannot
        diverge.
        """
        from repro.optimizations import OPTIMIZATIONS
        known = {opt.key: opt.config_field for opt in OPTIMIZATIONS}
        keys = tuple(known) if keys is None else tuple(keys)
        unknown = set(keys) - set(known)
        if unknown:
            raise KeyError(f"unknown optimizations {sorted(unknown)}; "
                           f"known: {sorted(known)}")
        return SessionVariant(**{known[key]: True for key in keys})

    def to_dict(self) -> dict:
        # Every field is a bool: a field-list copy equals asdict() without
        # its deep copy.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @staticmethod
    def from_dict(data) -> "SessionVariant":
        """Rebuild a variant from a dict of fields or a registry name."""
        if isinstance(data, str):
            return session_variant(data)
        if isinstance(data, SessionVariant):
            return data
        unknown = set(data) - {f for f in SessionVariant.__dataclass_fields__}
        if unknown:
            raise KeyError(f"unknown session-variant fields {sorted(unknown)}")
        return SessionVariant(**data)


#: The named variants the paper's figures use.
SESSION_VARIANTS: dict[str, SessionVariant] = {
    "default": SessionVariant(),
    "native": SessionVariant(measurement_enabled=False),
    "single_buffered": SessionVariant(double_buffered_queries=False),
    "optimized": SessionVariant.optimized(),
    "memoize_xgwa": SessionVariant.optimized(("memoize_xgwa",)),
    "two_step_copy": SessionVariant.optimized(("two_step_copy",)),
    "slow_motion": SessionVariant(slow_motion=True),
}


def session_variant(name: str) -> SessionVariant:
    """Look up a named session variant."""
    try:
        return SESSION_VARIANTS[name]
    except KeyError:
        raise KeyError(f"unknown session variant {name!r}; "
                       f"known: {sorted(SESSION_VARIANTS)}") from None


def register_session_variant(name: str, variant: SessionVariant) -> SessionVariant:
    """Register a variant under ``name`` for use in serialized scenarios."""
    if not name:
        raise ValueError("session variant name must be non-empty")
    SESSION_VARIANTS[name] = variant
    return variant


def variant_name(variant: SessionVariant) -> Optional[str]:
    """The registry name of ``variant``, or None for unnamed combinations."""
    for name, registered in SESSION_VARIANTS.items():
        if registered == variant:
            return name
    return None
