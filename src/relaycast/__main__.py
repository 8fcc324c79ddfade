"""``python -m relaycast``: the ``relaycast`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
