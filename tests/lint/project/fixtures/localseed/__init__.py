"""SEED103 fixture: a constant worker seed under a function-local numpy import."""
