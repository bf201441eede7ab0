# Build file of the benchmark's probe. run.py configures the repository's
# own CMake project unchanged and injects this file after its project()
# call (-DCMAKE_PROJECT_tpidp_INCLUDE=perfbench/probe.cmake), so tpidp is
# built exactly as the repository builds it and the probe links the same
# libraries. Library targets are resolved when the build is generated, so
# naming them here, before src/ is added, is fine.
add_executable(perfbench_probe ${CMAKE_CURRENT_LIST_DIR}/probe.cpp)
target_compile_features(perfbench_probe PRIVATE cxx_std_20)
target_compile_options(perfbench_probe PRIVATE -Wall -Wextra)
target_link_libraries(perfbench_probe
  PRIVATE tpidp_serve tpidp_tpi tpidp_analysis tpidp_lint tpidp_gen
          tpidp_fault tpidp_sim tpidp_testability tpidp_netlist
          tpidp_obs tpidp_util)
