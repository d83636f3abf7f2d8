"""The dispatched worker imports numpy inside its own body."""


def work(item):
    import numpy as np

    return np.random.default_rng(7).random() + item  # expect[SEED103]


def seeded_from_item(item, item_seed):
    import numpy as np

    return np.random.default_rng(item_seed).random() + item
