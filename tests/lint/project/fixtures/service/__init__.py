"""SEED102 fixture: generator construction in service handlers."""
