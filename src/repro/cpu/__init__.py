"""Core timing model: a ROB/width-limited out-of-order retirement model."""
