import gc

# no collection while the package imports: what it builds lives until exit,
# and cli.run freezes it before it turns the collector back on
gc.disable()

from .cli import run  # noqa: E402

run()
