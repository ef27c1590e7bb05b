# Project hook that adds the benchmark driver to the repository's own CMake
# project, so the driver compiles with exactly the flags (SIMD tier included)
# the library targets export.  Configure from the repository root:
#   cmake -S . -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_gpuksel_INCLUDE=$PWD/perfbench/hook.cmake
add_subdirectory(perfbench)
