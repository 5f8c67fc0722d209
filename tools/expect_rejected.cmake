# Passes when `TOOL ARG1 ARG2 ARG3` rejects its input cleanly: a non-zero
# exit, EXPECT in its output, and no uncaught exception.
execute_process(COMMAND ${TOOL} ${ARG1} ${ARG2} ${ARG3}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0 OR NOT out MATCHES "${EXPECT}" OR out MATCHES "terminate called")
  message(FATAL_ERROR "expected a clean '${EXPECT}' rejection, got exit ${rc}:\n${out}")
endif()
