# Compiler warnings, architecture tuning, and sanitizer presets.
#
# Options:
#   TSG_NATIVE_ARCH  (bool, default ON)  -- add -march=native.  Turn OFF for
#                                           portable binaries (CI runners,
#                                           containers migrated across hosts).
#   TSG_SANITIZE     (string, default "") -- sanitizer preset; one of
#                                           "", "address", "undefined",
#                                           "address;undefined" (or the comma
#                                           form "address,undefined"),
#                                           "thread", "leak".
#
# Sanitizer flags are applied globally (compile + link) so the static
# library, tests, benchmarks, and tools all agree on the instrumented ABI.

option(TSG_NATIVE_ARCH "Tune for the build machine with -march=native" ON)
set(TSG_SANITIZE "" CACHE STRING
    "Sanitizers to enable: address, undefined, thread, leak (combine address+undefined with ';' or ',')")
set_property(CACHE TSG_SANITIZE PROPERTY STRINGS
             "" "address" "undefined" "address;undefined" "thread" "leak")

add_compile_options(-Wall -Wextra)

# Bitwise reproducibility: FMA contraction is a per-TU compiler decision,
# so the same inline expression (e.g. Material::fromVelocities) can round
# differently at two call sites compiled in different TUs -- a 1-ulp seed
# difference that the preset-equivalence and cross-backend bitwise suites
# then amplify into test failures.  Accumulation order is fixed in the
# source; keep the arithmetic fixed too.  (Explicit std::fma is
# unaffected.)
if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  add_compile_options(-ffp-contract=off)
endif()

# AVX upper state across calls: with IPA register allocation, GCC (12.2
# at least) knows that a TU-local callee such as `matVec9` preserves some
# vector registers, so its vzeroupper pass emits no `vzeroupper` before
# that call.  It still assumes the upper state is clean once the call
# returns, so the libm or friction call that follows gets none either.
# SSE-encoded glibc code (`asinh`, `hypot`) then runs with the upper
# halves dirty after a 512-bit store and pays a transition penalty on
# every instruction: the rate-and-state solve ran about 10x slower.
# Without IPA-RA every call clobbers all vector registers and gets its
# `vzeroupper`.  Register allocation only: results are bitwise
# identical.  tools/check_avx_transitions.py guards the library.
if(CMAKE_CXX_COMPILER_ID STREQUAL "GNU")
  add_compile_options(-fno-ipa-ra)
endif()

if(TSG_NATIVE_ARCH)
  include(CheckCXXCompilerFlag)
  check_cxx_compiler_flag(-march=native TSG_HAS_MARCH_NATIVE)
  if(TSG_HAS_MARCH_NATIVE)
    add_compile_options(-march=native)
  endif()
endif()

if(TSG_SANITIZE)
  # Accept "address,undefined" as well as the CMake-native list form.
  string(REPLACE "," ";" _tsg_san_list "${TSG_SANITIZE}")
  set(_tsg_san_known address undefined thread leak)
  foreach(_san IN LISTS _tsg_san_list)
    if(NOT _san IN_LIST _tsg_san_known)
      message(FATAL_ERROR
              "TSG_SANITIZE: unknown sanitizer '${_san}' (expected one of: ${_tsg_san_known})")
    endif()
  endforeach()
  if("thread" IN_LIST _tsg_san_list AND
     ("address" IN_LIST _tsg_san_list OR "leak" IN_LIST _tsg_san_list))
    message(FATAL_ERROR
            "TSG_SANITIZE: 'thread' cannot be combined with 'address' or 'leak'")
  endif()

  string(REPLACE ";" "," _tsg_san_flag "${_tsg_san_list}")
  add_compile_options(-fsanitize=${_tsg_san_flag} -fno-omit-frame-pointer
                      -fno-sanitize-recover=all)
  add_link_options(-fsanitize=${_tsg_san_flag})
  message(STATUS "Sanitizers enabled: ${_tsg_san_flag}")
endif()
