# Writes GIT_SHA_HEADER, defining GOOFI_GIT_SHA as the current HEAD of
# the sources under GOOFI_ROOT ("unknown" when they are not a git work
# tree; an exported tree must not pick up the HEAD of some repository
# above it). Runs on every build and rewrites the header only when the
# sha changed, so reports never carry a stale stamp.
set(sha "unknown")
if(GIT_EXECUTABLE AND EXISTS "${GOOFI_ROOT}/.git")
  execute_process(COMMAND "${GIT_EXECUTABLE}" rev-parse --short=12 HEAD
                  WORKING_DIRECTORY "${GOOFI_ROOT}"
                  OUTPUT_VARIABLE head OUTPUT_STRIP_TRAILING_WHITESPACE
                  RESULT_VARIABLE result ERROR_QUIET)
  if(result EQUAL 0 AND head)
    set(sha "${head}")
  endif()
endif()
set(text "#define GOOFI_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${GIT_SHA_HEADER}")
  file(READ "${GIT_SHA_HEADER}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${GIT_SHA_HEADER}" "${text}")
endif()
