"""HOL proof replay, translation to a lambda-Pi-modulo encoding, and re-verification."""

__version__ = "0.1.0"
