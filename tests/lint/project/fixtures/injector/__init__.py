"""SEED102/RNG001 fixture: fault injectors drawing outside their own generator."""
