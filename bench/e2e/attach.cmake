# Adds bench/e2e to a top-level configure that does not build bench/:
#
#   cmake -S . -B <dir> -DCMAKE_PROJECT_veriqc_INCLUDE=<abs>/bench/e2e/attach.cmake
#
# project(veriqc) includes this file. The deferred include runs at the end of
# the top-level CMakeLists.txt, once the library targets exist (CMake allows
# no add_subdirectory() there). Testing is enabled so that e2e_smoke is
# registered even with VERIQC_BUILD_TESTS=OFF.
enable_testing()
set(VERIQC_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${VERIQC_E2E_DIR}/CMakeLists.txt")
