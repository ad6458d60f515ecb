"""Core timing model: a ROB/width-limited out-of-order retirement model."""

from repro.cpu.core import CoreResult, CoreRunner

__all__ = ["CoreResult", "CoreRunner"]
