"""Extension — I/O and storage through containers (the paper's future work).

The paper closes: "Our study lacks a deeper evaluation of I/O and
distributed storage performance using containers."  This benchmark
provides that evaluation on the model: a checkpoint-writing workload
executed three ways on a MareNostrum4 node —

- bare-metal writes to the parallel filesystem;
- a container writing through a *bind-mounted* scratch directory (the
  recommended configuration): same bytes, same path, no extra cost;
- a container writing into its *overlay* upper layer (the naive
  configuration): every rewritten image file pays copy-up, and all
  checkpoint bytes land on the node-local disk instead of the PFS.

The copy-up is priced from the image's layer trees: rewriting a file
copies its top-most lower copy into the upper layer.
"""

from repro.containers.builder import ImageBuilder
from repro.containers.recipes import BuildTechnique, alya_recipe
from repro.core.figures import ascii_table
from repro.des import Environment
from repro.hardware import catalog

CHECKPOINT_BYTES = 4e9  # one 4 GB checkpoint
REWRITTEN_IMAGE_FILES = ("/opt/alya/share/doc/alya.txt",)  # config rewrite


def write_checkpoint_baremetal(env, cluster):
    yield cluster.shared_fs.transfer(CHECKPOINT_BYTES)
    return "pfs"


def write_checkpoint_bind(env, cluster, node):
    # Bind mount routes the write to the PFS: identical cost to bare-metal.
    yield cluster.shared_fs.transfer(CHECKPOINT_BYTES)
    return "pfs-via-bind"


def copy_up_bytes(layer_trees, paths):
    """Bytes an overlay copies into its upper layer when ``paths`` are
    rewritten: the top-most lower copy of each (``layer_trees`` top-most
    first); a path no layer holds is a new file and copies nothing."""
    total = 0.0
    for path in paths:
        for tree in layer_trees:
            if tree.exists(path):
                total += tree.size_of(path)
                break
    return total


def write_checkpoint_overlay(env, cluster, node, image):
    copied = copy_up_bytes(image.layer_trees(), REWRITTEN_IMAGE_FILES)
    # Upper-layer writes land on the node-local disk.
    yield node.disk.transfer(CHECKPOINT_BYTES + copied)
    return copied


def run_io_modes():
    spec = catalog.MARENOSTRUM4
    env = Environment()
    from repro.hardware.cluster import Cluster

    cluster = Cluster(env, spec, num_nodes=1)
    node = cluster.node(0)
    image = ImageBuilder().build_oci(
        alya_recipe(BuildTechnique.SELF_CONTAINED)
    ).image
    times = {}

    def timed(label, gen):
        t0 = env.now
        yield env.process(gen)
        times[label] = env.now - t0

    def main():
        yield from timed("bare-metal -> PFS", write_checkpoint_baremetal(env, cluster))
        yield from timed(
            "container, bind-mounted scratch",
            write_checkpoint_bind(env, cluster, node),
        )
        yield from timed(
            "container, overlay upper",
            write_checkpoint_overlay(env, cluster, node, image),
        )

    env.process(main())
    env.run()
    return times


def test_ext_container_io_overhead(once):
    times = once(run_io_modes)
    rows = [[label, t] for label, t in times.items()]
    print("\n" + ascii_table(["I/O configuration", "checkpoint time [s]"], rows))

    bare = times["bare-metal -> PFS"]
    bind = times["container, bind-mounted scratch"]
    overlay = times["container, overlay upper"]
    # Bind-mounted scratch is free; overlay writes pay dearly (local disk
    # bandwidth + copy-up) — the operational guidance the paper's future
    # work section asks for.
    assert bind == bare
    assert overlay > 5 * bare
