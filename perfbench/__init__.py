"""Time-to-verdict benchmark for the VERIFAS reproduction (see README.md)."""
