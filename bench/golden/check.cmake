# Reruns one deterministic program and compares what it produced with its
# golden copy in this directory, byte for byte.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<golden file> -DWORKDIR=<work dir>
#         [-DOUTPUT=<file the program writes>] -P check.cmake
#
# Without OUTPUT the program's stdout is compared.  A deliberate change of
# an output is re-baselined by copying the new file over the golden one, so
# the change shows up as a reviewed diff.
foreach(var PROGRAM GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check.cmake: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${PROGRAM}"
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_FILE "${WORKDIR}/stdout.txt"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()

if(DEFINED OUTPUT)
  set(actual "${WORKDIR}/${OUTPUT}")
else()
  set(actual "${WORKDIR}/stdout.txt")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${actual}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${actual}")
  endif()
  message(FATAL_ERROR "${actual} differs from ${GOLDEN}; if the change is "
                      "intended, copy it over the golden file")
endif()
