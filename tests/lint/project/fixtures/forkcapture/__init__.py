"""PAR101 fixture: captures reached through ForkPool dispatches."""
