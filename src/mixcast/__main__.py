"""`python -m mixcast` and the `mixcast` command: the command-line
pipeline. It needs no allocator settings: `training.fit` and
`metrics.evaluate` reuse their large buffers from step to step and chunk
to chunk."""


def main():
    from .cli import main as cli_main

    cli_main(prog_name="mixcast")


if __name__ == "__main__":
    main()
