"""SEED102/RNG001 fixture: defenses drawing outside their owned stream."""
