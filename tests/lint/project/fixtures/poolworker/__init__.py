"""PAR101 fixture: pool workers dispatched from the module that defines them."""
